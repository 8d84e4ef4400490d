"""Span tracing on monotonic clocks.

A span is one timed region of the pipeline — a sweep, one experiment,
one validation replay.  Spans nest: the tracer keeps the current span in
a :class:`contextvars.ContextVar`, so ``with tracer.span(...)``
automatically records its parent and the ``mnemo obs`` CLI can rebuild
the run's tree afterwards.

Spans time with :func:`time.perf_counter_ns`, which never goes
backwards but is only comparable *within* one process.  A span
therefore carries its duration and its origin PID; ordering across
processes comes from the tree structure, never from comparing raw
timestamps.
"""

from __future__ import annotations

import os
import time
from contextvars import ContextVar
from dataclasses import dataclass, field


@dataclass(frozen=True)
class SpanRecord:
    """One finished span (picklable; JSON-ready via :meth:`to_record`)."""

    name: str
    span_id: str
    parent_id: str | None
    start_ns: int
    duration_ns: int
    pid: int
    attrs: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        """The JSONL payload of this span (sans the run envelope)."""
        return {
            "name": self.name,
            "span": self.span_id,
            "parent": self.parent_id,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "pid": self.pid,
            "attrs": dict(self.attrs),
        }


class ActiveSpan:
    """A span being timed; usable as a context manager.

    ``set(key, value)`` attaches attributes — e.g. the cache provenance
    of an experiment, known only at the end.  The record a closed span
    leaves holds the same attributes, so a ``set`` after the close still
    reaches it: the runner names each experiment's provenance once its
    batch is measured, after the experiment's own span.
    """

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "attrs",
                 "_start", "_token")

    def __init__(self, tracer: "Tracer", name: str, parent_id: str | None,
                 attrs: dict):
        self._tracer = tracer
        self.name = name
        self.span_id = tracer._next_id()
        self.parent_id = parent_id
        self.attrs = attrs
        self._start = 0
        self._token = None

    def set(self, key: str, value) -> None:
        """Attach (or overwrite) one attribute."""
        self.attrs[key] = value

    def __enter__(self) -> "ActiveSpan":
        self._token = self._tracer._current.set(self.span_id)
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = time.perf_counter_ns()
        self._tracer._current.reset(self._token)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._finish(SpanRecord(
            name=self.name,
            span_id=self.span_id,
            parent_id=self.parent_id,
            start_ns=self._start,
            duration_ns=end - self._start,
            pid=self._tracer.pid,
            attrs=self.attrs,
        ))


class NullSpan:
    """Shared no-op stand-in returned when telemetry is disabled."""

    __slots__ = ()

    def set(self, key: str, value) -> None:
        """No-op."""

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_SPAN = NullSpan()


class Tracer:
    """Produces nested spans and collects the finished records.

    Span ids are ``"<pid hex>-<sequence>"`` — unique within a run even
    across processes, with no global coordination.
    """

    def __init__(self):
        self.pid = os.getpid()
        self.records: list[SpanRecord] = []
        self._seq = 0
        self._current: ContextVar[str | None] = ContextVar(
            f"repro-telemetry-span-{id(self)}", default=None,
        )

    def _next_id(self) -> str:
        self._seq += 1
        return f"{self.pid:x}-{self._seq}"

    def _finish(self, record: SpanRecord) -> None:
        self.records.append(record)

    def current_id(self) -> str | None:
        """The id of the innermost open span (None outside any span)."""
        return self._current.get()

    def span(self, name: str, **attrs) -> ActiveSpan:
        """Open a span as a child of the innermost open span."""
        return ActiveSpan(self, name, self.current_id(), attrs)


def build_tree(spans: list[dict]) -> tuple[list[dict], dict[str, list[dict]]]:
    """(roots, children-by-parent) from span JSONL records.

    A span whose parent id is missing from the record set is a root.
    Sibling order is by origin
    (pid, start_ns), which is stable and meaningful per process.
    """
    by_id = {s["span"]: s for s in spans}
    children: dict[str, list[dict]] = {}
    roots: list[dict] = []
    for s in sorted(spans, key=lambda s: (s["pid"], s["start_ns"])):
        parent = s.get("parent")
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append(s)
        else:
            roots.append(s)
    return roots, children
