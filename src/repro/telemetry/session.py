"""The telemetry session: one run's metrics, spans and events.

A session is the mutable collection point everything in
:mod:`repro.telemetry` writes into.  Exactly one session is *active* per
process at a time (see the module-level API in
:mod:`repro.telemetry.__init__`); when none is active every
instrumentation call is a cheap no-op — which is the normal state, and
the reason telemetry is provably off-path: disabled instrumentation
executes no arithmetic, touches no RNG stream and allocates nothing on
the measurement path.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.telemetry.events import EVENT_SCHEMA_VERSION, write_jsonl
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import Tracer


def _default_run_id() -> str:
    """A run id unique enough for log filenames; never feeds results."""
    return f"{time.strftime('%Y%m%d-%H%M%S')}-{os.getpid()}"


class TelemetrySession:
    """Collects one run's telemetry; optionally flushes JSONL on close.

    Parameters
    ----------
    run_id:
        Identifier stamped on every record.  Defaults to a
        wall-clock/PID string — telemetry identity never feeds
        fingerprints, so this non-determinism is harmless (tests pin it
        explicitly when they want byte-stable logs).
    sink:
        Path of the JSONL event log written by :meth:`close` (None =
        in-memory only).
    """

    def __init__(
        self,
        run_id: str | None = None,
        sink: str | Path | None = None,
    ):
        self.run_id = run_id or _default_run_id()
        self.sink = Path(sink) if sink is not None else None
        self.started_unix = time.time()
        self.run_attrs: dict = {}
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        self.events: list[tuple[str, int, int, dict]] = []
        self._pid = os.getpid()
        self._seq = 0

    # -- recording ------------------------------------------------------------

    def event(self, name: str, **attrs) -> None:
        """Record one structured point-in-time event."""
        self._seq += 1
        self.events.append((name, self._seq, self._pid, attrs))

    def span(self, name: str, **attrs):
        """Open a span (context manager) under the innermost open span."""
        return self.tracer.span(name, **attrs)

    def count(self, name: str, value: float = 1.0, **labels) -> None:
        """Increment the counter (*name*, *labels*)."""
        self.metrics.counter(name, **labels).inc(value)

    def gauge(self, name: str, value: float, **labels) -> None:
        """Set the gauge (*name*, *labels*)."""
        self.metrics.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels) -> None:
        """Record one histogram observation under (*name*, *labels*)."""
        self.metrics.histogram(name, **labels).observe(value)

    # -- access / flush -------------------------------------------------------

    def records(self) -> list[dict]:
        """Every JSONL record of this session, header first."""
        envelope = {"run": self.run_id, "schema": EVENT_SCHEMA_VERSION}
        out: list[dict] = [{
            **envelope,
            "kind": "run",
            "started_unix": self.started_unix,
            "attrs": dict(self.run_attrs),
        }]
        for span in self.tracer.records:
            out.append({**envelope, "kind": "span", **span.to_record()})
        for name, seq, pid, attrs in self.events:
            out.append({
                **envelope, "kind": "event",
                "name": name, "seq": seq, "pid": pid, "attrs": dict(attrs),
            })
        for rec in self.metrics.snapshot():
            out.append({**envelope, "kind": "metric", **rec})
        return out

    def close(self) -> Path | None:
        """Flush the JSONL log to the sink (if any); returns its path."""
        if self.sink is None:
            return None
        return write_jsonl(self.sink, self.records())
