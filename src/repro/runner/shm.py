"""Shared-memory trace plane for grouped sweep dispatch.

A sweep evaluates many placements over *few* traces, and a worker that
materialises a trace itself regenerates it from the workload spec.  The
trace plane removes that cost: the coordinator
publishes each distinct trace's arrays (``keys``, ``is_read``,
``record_sizes``) **once** into a :mod:`multiprocessing.shared_memory`
segment, and workers attach zero-copy read-only views, memoized per
process so a warm pool pays the attach exactly once per trace.

Ownership and cleanup are deliberately one-sided:

- the :class:`TracePlane` (coordinator side) *owns* every segment it
  publishes.  Segments persist across retry rounds and across sweeps
  (that persistence is the warm-pool win) and are unlinked when the
  plane is closed — the runner closes it from ``close()``, a
  ``weakref.finalize`` and the CLI's ``finally``, and the coordinator's
  own :mod:`multiprocessing.resource_tracker` covers abnormal exits;
- workers never unlink.  Attaching registers the segment with the
  attaching process's resource tracker (Python 3.11 has no opt-out).
  Fork-started workers *share* the coordinator's tracker process, so
  their registration is an idempotent no-op that must be left alone —
  unregistering would strip the coordinator's own entry.  Only a
  process with its *own* tracker (spawn workers, unrelated attachers)
  unregisters, lest its tracker tear the segment down at exit.  The
  handle carries the publisher's tracker pid so :meth:`attach` can
  tell the two apart.

A :class:`SharedTraceHandle` is a tiny picklable descriptor (segment
name, dtypes, shapes, offsets, trace content digest) — the only thing
that crosses the pool boundary.  Attach failures are non-fatal by
design: the batch executor falls back to materialising the trace from
the workload spec, so a vanished segment degrades performance, never
correctness.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro import telemetry
from repro.ycsb.workload import Trace

#: Byte alignment of each array inside a segment.
_ALIGN = 64

#: Per-process attach memo capacity (traces, not bytes; traces are the
#: unit a sweep groups by and sweeps rarely span more than a handful).
_ATTACH_CAP = 8


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def _tracker_pid() -> int | None:
    """PID of this process's resource-tracker daemon (None if not up)."""
    return getattr(resource_tracker._resource_tracker, "_pid", None)


@dataclass(frozen=True)
class _Field:
    """Layout of one array inside a shared segment."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class SharedTraceHandle:
    """Picklable descriptor of one published trace.

    ``digest`` is the trace's content fingerprint — the key worker-side
    memos (attach memo, kernel memo, client trace-digest memo) are
    primed with, so workers never re-hash a shared trace.
    """

    segment: str
    trace_name: str
    digest: str
    fields: tuple[_Field, ...]
    nbytes: int
    owner_pid: int
    tracker_pid: int | None = None

    def attach(self) -> tuple[Trace, shared_memory.SharedMemory]:
        """Zero-copy read-only :class:`Trace` over the shared segment.

        Returns the trace *and* the attached segment object: the arrays
        view the segment's buffer, so the caller must keep the segment
        referenced for as long as the trace lives.
        """
        shm = shared_memory.SharedMemory(name=self.segment)
        # Python 3.11 always registers an attach with the resource
        # tracker, which would unlink the coordinator-owned segment when
        # this process exits.  When this process shares the publisher's
        # tracker daemon (same process, or a fork-started pool worker),
        # that registration was an idempotent no-op protecting the
        # abnormal-exit cleanup — leave it be; unregistering would strip
        # the publisher's own entry.  A process with its *own* tracker
        # must step out of the picture: the plane owns the lifetime.
        if _tracker_pid() != self.tracker_pid:
            try:
                resource_tracker.unregister(
                    getattr(shm, "_name", "/" + shm.name), "shared_memory"
                )
            except Exception:  # pragma: no cover - tracker internals moved
                pass
        arrays = {}
        for f in self.fields:
            arr = np.ndarray(
                f.shape, dtype=np.dtype(f.dtype), buffer=shm.buf,
                offset=f.offset,
            )
            arr.flags.writeable = False
            arrays[f.name] = arr
        trace = Trace(name=self.trace_name, **arrays)
        return trace, shm


class TracePlane:
    """Coordinator-owned registry of published trace segments.

    Publishing is idempotent per trace content digest, so repeated
    sweeps over the same workloads reuse the same segments.  The plane
    must be closed (directly, via the owning runner, or by the
    runner's finalizer) to unlink everything it created.
    """

    def __init__(self, prefix: str = "mnemo"):
        self._prefix = prefix
        self._segments: dict[
            str, tuple[shared_memory.SharedMemory, SharedTraceHandle]
        ] = {}
        self._seq = 0

    def __len__(self) -> int:
        return len(self._segments)

    def __contains__(self, digest: str) -> bool:
        return digest in self._segments

    @property
    def segment_names(self) -> list[str]:
        """Names of every live segment (for leak checks and tests)."""
        return [shm.name for shm, _ in self._segments.values()]

    def publish(self, trace: Trace, digest: str | None = None) -> SharedTraceHandle:
        """Publish *trace* (idempotent per content digest); return its handle."""
        if digest is None:
            from repro.runner.fingerprint import trace_fingerprint

            digest = trace_fingerprint(trace)
        entry = self._segments.get(digest)
        if entry is not None:
            return entry[1]

        arrays = (
            ("keys", np.ascontiguousarray(trace.keys)),
            ("is_read", np.ascontiguousarray(trace.is_read)),
            ("record_sizes", np.ascontiguousarray(trace.record_sizes)),
        )
        fields = []
        offset = 0
        for name, arr in arrays:
            offset = _aligned(offset)
            fields.append(_Field(
                name=name, dtype=arr.dtype.str, shape=arr.shape,
                offset=offset,
            ))
            offset += arr.nbytes
        shm = self._create_segment(digest, max(offset, 1))
        for field, (_, arr) in zip(fields, arrays):
            dst = np.ndarray(
                field.shape, dtype=np.dtype(field.dtype), buffer=shm.buf,
                offset=field.offset,
            )
            dst[...] = arr
        handle = SharedTraceHandle(
            segment=shm.name, trace_name=trace.name, digest=digest,
            fields=tuple(fields), nbytes=offset, owner_pid=os.getpid(),
            tracker_pid=_tracker_pid(),
        )
        self._segments[digest] = (shm, handle)
        telemetry.count("runner.shm", op="publish")
        telemetry.event(
            "runner.shm_publish", segment=shm.name, trace=trace.name,
            bytes=offset,
        )
        return handle

    def _create_segment(self, digest: str, size: int):
        while True:
            name = f"{self._prefix}-{os.getpid()}-{digest[:8]}-{self._seq}"
            self._seq += 1
            try:
                return shared_memory.SharedMemory(
                    name=name, create=True, size=size
                )
            except FileExistsError:  # stale name from a dead run: next seq
                continue

    def close(self) -> None:
        """Close and unlink every segment this plane published."""
        for shm, _ in self._segments.values():
            try:
                shm.close()
            except Exception:  # pragma: no cover - already closed
                pass
            # belt and braces: make sure the unlink's implicit tracker
            # unregister finds an entry even if some attacher stripped it
            try:
                resource_tracker.register(
                    getattr(shm, "_name", "/" + shm.name), "shared_memory"
                )
            except Exception:  # pragma: no cover - tracker internals moved
                pass
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments.clear()


# -- worker side -------------------------------------------------------------

#: Per-process attach memo: segment name -> (trace, segment).  The
#: segment object must stay referenced while the trace's arrays are
#: alive, so it rides along in the memo entry.
_ATTACH_MEMO: "OrderedDict[str, tuple[Trace, shared_memory.SharedMemory]]" = (
    OrderedDict()
)


def attach_trace(handle: SharedTraceHandle) -> Trace:
    """Attach (memoized per process) to a published trace.

    A warm pool worker pays the attach once per trace; every later
    batch over the same segment is a dictionary lookup.  Raises if the
    segment is gone — callers are expected to fall back to
    materialising the trace themselves.
    """
    entry = _ATTACH_MEMO.get(handle.segment)
    if entry is not None:
        _ATTACH_MEMO.move_to_end(handle.segment)
        telemetry.count("runner.shm", op="memo_hit")
        return entry[0]
    trace, shm = handle.attach()
    telemetry.count("runner.shm", op="attach")
    _ATTACH_MEMO[handle.segment] = (trace, shm)
    while len(_ATTACH_MEMO) > _ATTACH_CAP:
        _, (_, old) = _ATTACH_MEMO.popitem(last=False)
        try:
            old.close()
        except BufferError:  # a view still lives; GC will reclaim it
            pass
    return trace
