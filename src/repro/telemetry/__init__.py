"""repro.telemetry — deterministic tracing, metrics and run profiling.

The observability substrate under the whole pipeline: a zero-dependency
metrics registry (:mod:`~repro.telemetry.metrics`), a span tracer on
monotonic clocks that survives process-pool round trips
(:mod:`~repro.telemetry.spans`), and a structured JSONL event log keyed
by a per-run id (:mod:`~repro.telemetry.events`).  ``mnemo obs`` renders
a run's log into a span tree, slow-span table, cache hit rate and kernel
path mix (:mod:`~repro.telemetry.render`).

The hard design rule — tested by ``tests/telemetry/test_determinism.py``
and gated by ``make bench-obs`` — is that telemetry is **off-path**:

- instrumentation only *reads* pipeline state; it never touches RNG
  streams, fingerprints, placements or measured numbers, so a sweep is
  bit-identical with telemetry enabled or disabled;
- when no session is active (the default), every hook below is a
  constant-time no-op that allocates nothing;
- enabling it costs <= 3% on a validator-style sweep, the floor
  recorded in ``BENCH_obs.json``.

Usage — instrumented code calls the module-level hooks unconditionally::

    from repro import telemetry

    telemetry.count("cache.lookup", kind="results", outcome="hit")
    with telemetry.span("runner.sweep", n_specs=len(specs)):
        ...
    telemetry.event("runner.retry", label=spec.label, attempt=2)

and an operator (or the CLI's ``--obs PATH`` flag) opts in per run::

    with telemetry.session(sink="run.jsonl") as tel:
        runner.sweep(specs)
    # run.jsonl now holds the spans, events and final metrics
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

from repro._lazy import attach

# eager on purpose: the submodule shares its name with the ``session()``
# context manager below, and a first import of it after that ``def``
# would rebind ``repro.telemetry.session`` to the module
from repro.telemetry.session import TelemetrySession
from repro.telemetry.spans import NULL_SPAN

__getattr__, __dir__, __all__ = attach(__name__, {
    "events": [
        "EVENT_SCHEMA_VERSION", "read_jsonl", "validate_record",
        "write_jsonl",
    ],
    "metrics": [
        "DEFAULT_BUCKETS", "Counter", "Gauge", "Histogram",
        "MetricsRegistry",
    ],
    "session": ["TelemetrySession", "TelemetrySnapshot", "WorkerTelemetry"],
    "spans": ["NULL_SPAN", "SpanRecord", "Tracer", "build_tree"],
})
__all__ += [
    "absorb", "activate", "activate_worker", "count", "deactivate",
    "drain_worker", "enabled", "event", "gauge", "get", "observe",
    "session", "span", "worker_config",
]

#: The process-wide active session (None = telemetry disabled).
_ACTIVE: TelemetrySession | None = None


def get() -> TelemetrySession | None:
    """The active session, or None when telemetry is disabled."""
    return _ACTIVE


def enabled() -> bool:
    """True when a telemetry session is active in this process."""
    return _ACTIVE is not None


def activate(session: TelemetrySession) -> TelemetrySession:
    """Make *session* the process-wide active session."""
    global _ACTIVE
    _ACTIVE = session
    return session


def deactivate() -> TelemetrySession | None:
    """Deactivate (and return) the active session, if any."""
    global _ACTIVE
    session, _ACTIVE = _ACTIVE, None
    return session


@contextmanager
def session(
    run_id: str | None = None,
    sink: str | Path | None = None,
):
    """Activate a fresh session for the duration of the ``with`` block.

    On exit the session is deactivated and — when *sink* is given — its
    JSONL event log is flushed there.  Yields the session so callers
    can inspect metrics or stamp :attr:`~TelemetrySession.run_attrs`.
    """
    tel = activate(TelemetrySession(run_id=run_id, sink=sink))
    try:
        yield tel
    finally:
        deactivate()
        tel.close()


# -- instrumentation hooks (constant-time no-ops when disabled) ---------------


def count(name: str, value: float = 1.0, **labels) -> None:
    """Increment a counter on the active session (no-op when disabled)."""
    if _ACTIVE is not None:
        _ACTIVE.count(name, value, **labels)


def gauge(name: str, value: float, **labels) -> None:
    """Set a gauge on the active session (no-op when disabled)."""
    if _ACTIVE is not None:
        _ACTIVE.gauge(name, value, **labels)


def observe(name: str, value: float, **labels) -> None:
    """Record a histogram observation (no-op when disabled)."""
    if _ACTIVE is not None:
        _ACTIVE.observe(name, value, **labels)


def event(name: str, **attrs) -> None:
    """Record a structured event (no-op when disabled)."""
    if _ACTIVE is not None:
        _ACTIVE.event(name, **attrs)


def span(name: str, **attrs):
    """Open a span on the active session (shared no-op when disabled)."""
    if _ACTIVE is None:
        return NULL_SPAN
    return _ACTIVE.span(name, **attrs)


# -- pool-worker plumbing -----------------------------------------------------


def worker_config() -> WorkerTelemetry | None:
    """What to put in a task payload so a worker continues this run."""
    if _ACTIVE is None:
        return None
    return _ACTIVE.worker_config()


def activate_worker(config: WorkerTelemetry | None) -> None:
    """Activate an in-memory worker session from a payload config.

    No-op when the coordinator ran without telemetry (config None).
    """
    if config is not None:
        activate(TelemetrySession(
            run_id=config.run_id, root_id=config.parent_id,
        ))


def drain_worker() -> TelemetrySnapshot | None:
    """Deactivate the worker session and export its snapshot (or None)."""
    tel = deactivate()
    return tel.snapshot() if tel is not None else None


def absorb(snapshot: TelemetrySnapshot | None) -> None:
    """Fold a worker snapshot into the active session (no-op otherwise)."""
    if _ACTIVE is not None and snapshot is not None:
        _ACTIVE.absorb(snapshot)
