"""Parallel experiment grids with deterministic results and retries.

:class:`ExperimentRunner` executes workload x store x placement grids,
optionally across a :class:`~concurrent.futures.ProcessPoolExecutor`.
Three properties make the parallel path safe:

- every experiment is described by a picklable :class:`ExperimentSpec`
  (engines are named, not passed as live objects);
- noise seeds derive from the experiment fingerprint, so a task measures
  the same numbers no matter which process or schedule runs it —
  parallel grids are bit-identical to serial ones;
- store writes are transactions, so workers can share one store file.

The same fingerprint-derived determinism makes the pipeline *crash
tolerant for free*: a retried experiment measures exactly the numbers
the crashed attempt would have, so :meth:`ExperimentRunner.sweep` can
recover from worker death (``BrokenProcessPool``), injected chaos, and
per-experiment timeouts with bounded, backoff-spaced retries — and a
sweep that still loses experiments returns every completed result plus
a structured :class:`~repro.runner.outcome.FailureReport` instead of
raising (:meth:`run_grid` keeps the raise-on-failure contract for
callers that want it).

This module is the *coordinator*: it plans, dispatches and retries.
What it dispatches is always a batch for
:func:`repro.runner.executor.run_batch` — specs sharing a (workload,
engine) pair, hence one trace, one engine profile and one batch kernel.
A serial sweep runs singleton batches in process; a pooled sweep cuts
each group into batches small enough that every worker gets a share of
every group and ships them to workers.  Traces travel once per sweep
through a shared-memory plane (:mod:`repro.runner.shm`) instead of once
per task through pickles or regeneration — each one published as its
group's first batch is submitted, so the coordinator prepares the next
trace while the workers compute on this one; if a publish fails or a
segment vanishes the worker materialises the trace itself.  The worker
pool persists across retry rounds *and* across sweeps (the guard loop
and repeated CLI sweeps stop paying pool spin-up), and per-spec failure
attribution survives batching: worker replies are per-spec, and
unattributable batch failures (pool death, batch timeouts)
deterministically split the group into halves until the culprit stands
alone.  What a sweep takes and returns — specs, client config, retry
policy, outcome — are the value types of :mod:`repro.runner.spec` and
:mod:`repro.runner.outcome`.
"""

from __future__ import annotations

import os
import time
import weakref
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro import telemetry
from repro.errors import (
    ConfigurationError,
    ExperimentTimeoutError,
    FaultError,
)
from repro.kvstore.profiles import profile_for
from repro.memsim.system import HybridMemorySystem
from repro.runner.cache import ensure_cache
from repro.runner.executor import run_batch
from repro.runner.fingerprint import (
    experiment_fingerprint_parts,
    trace_fingerprint,
    workload_fingerprint,
)
from repro.runner.outcome import (
    NON_RETRYABLE,
    ExperimentFailure,
    ExperimentMeta,
    FailureReport,
    GridOutcome,
    RetryPolicy,
)
from repro.runner.shm import SharedTraceHandle, TracePlane
from repro.runner.spec import ClientConfig, ExperimentSpec, split_fast_keys
from repro.ycsb.client import RunResult
from repro.ycsb.generator import generate_trace
from repro.ycsb.workload import Trace, WorkloadSpec

if TYPE_CHECKING:
    from repro.store.store import SQLiteStore

#: Traces a runner keeps in memory (:meth:`ExperimentRunner.trace_for`).
TRACE_MEMO_SIZE = 8


def _shutdown_pool(pool, kill: bool = False) -> None:
    """Shut *pool* down; *kill* terminates its workers instead of waiting."""
    if kill:
        for proc in getattr(pool, "_processes", {}).values():
            try:
                proc.terminate()
            except OSError:  # pragma: no cover - already gone
                pass
    pool.shutdown(wait=not kill, cancel_futures=True)


class _Resources:
    """Mutable holder of a runner's persistent pool and trace plane.

    Lives outside the runner so ``weakref.finalize`` can release both
    when the runner is collected without the finalizer keeping the
    runner itself alive.
    """

    __slots__ = ("pool", "plane")

    def __init__(self):
        self.pool = None
        self.plane = None

    def release(self, kill: bool = False) -> None:
        pool, self.pool = self.pool, None
        if pool is not None:
            _shutdown_pool(pool, kill)
        plane, self.plane = self.plane, None
        if plane is not None:
            plane.close()


@dataclass
class _Sweep:
    """One sweep's bookkeeping, shared by its retry rounds.

    ``results`` / ``metas`` fill in spec order as ``pending`` drains;
    ``on_result`` (the journal checkpoint, or None) runs as each result
    reaches the coordinator.  ``splits`` maps a (workload, engine) group
    to how often its batches were halved after unattributable failures;
    ``handles`` maps a workload to its shared-memory handle — ``None``
    once a publish failed, so its workers materialise the trace.
    """

    specs: list
    retry: RetryPolicy
    results: list
    metas: list
    pending: set
    on_result: object = None
    splits: dict = field(default_factory=dict)
    handles: dict = field(default_factory=dict)


class ExperimentRunner:
    """Executes experiment grids with caching and optional parallelism.

    Parameters
    ----------
    cache:
        Result store (a :class:`~repro.store.SQLiteStore`, the path of
        its file, or None to disable caching).
    client:
        Client settings applied to every experiment.
    system_factory:
        Builds a fresh hybrid memory system per batch.  Must be
        picklable (a module-level callable) for parallel grids; the
        default Table I testbed is.
    workers:
        Default process count for :meth:`run_grid` (None = serial).
    retry:
        The :class:`~repro.runner.outcome.RetryPolicy` governing
        timeouts, retry budget and backoff for :meth:`sweep` /
        :meth:`run_grid`.
    chaos:
        Optional :class:`~repro.faults.ChaosPlan` striking experiments
        (worker kills / failures / hangs) — the fault-injection hook the
        chaos tests and game-days use.  Serial runs downgrade ``exit``
        strikes to raised :class:`~repro.errors.FaultError`\\ s so chaos
        never kills the calling process.

    The runner owns two persistent resources: a process pool that
    survives across retry rounds and across sweeps, and the
    shared-memory trace plane.  Both are released by :meth:`close`
    (the runner is also a context manager) or, failing that, by a
    finalizer at garbage collection.
    """

    def __init__(
        self,
        cache: SQLiteStore | str | None = None,
        client: ClientConfig = ClientConfig(),
        system_factory=HybridMemorySystem.testbed,
        workers: int | None = None,
        retry: RetryPolicy = RetryPolicy(),
        chaos=None,
    ):
        self.cache = ensure_cache(cache)
        self.client_config = client
        self.system_factory = system_factory
        self.workers = workers
        self.retry = retry
        self.chaos = chaos
        self._client = client.build(self.cache)
        self._res = _Resources()
        self._pool_workers = 0
        self._shm_handles: dict[str, SharedTraceHandle] = {}
        self._traces: "OrderedDict[str, Trace]" = OrderedDict()
        self._finalizer = weakref.finalize(self, _Resources.release, self._res)

    # -- persistent resources ----------------------------------------------------

    def close(self) -> None:
        """Release the persistent pool and unlink every shm segment."""
        self._discard_pool()
        self._shm_handles.clear()
        plane, self._res.plane = self._res.plane, None
        if plane is not None:
            plane.close()

    def __enter__(self) -> "ExperimentRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _ensure_pool(self, workers: int) -> ProcessPoolExecutor:
        """The persistent pool, rebuilt only when it is absent or small.

        Worker processes spawn lazily on submit, so sizing the pool to
        the full worker budget costs nothing for small rounds — and a
        warm pool (loaded modules, attached traces, memoized runners)
        is reused across retry rounds and across sweeps.
        """
        pool = self._res.pool
        if pool is not None and self._pool_workers >= workers:
            telemetry.count("runner.pool", event="reuse")
            return pool
        if pool is not None:
            self._discard_pool()
        pool = ProcessPoolExecutor(max_workers=workers)
        self._res.pool = pool
        self._pool_workers = workers
        telemetry.count("runner.pool", event="spinup")
        return pool

    def _discard_pool(self, kill: bool = False) -> None:
        """Drop the persistent pool (terminating its workers if *kill*)."""
        pool, self._res.pool = self._res.pool, None
        self._pool_workers = 0
        if pool is not None:
            _shutdown_pool(pool, kill)

    def _trace_plane(self) -> TracePlane:
        if self._res.plane is None:
            self._res.plane = TracePlane()
        return self._res.plane

    def _publish_trace(self, workload: WorkloadSpec) -> SharedTraceHandle:
        """Publish a workload's trace (idempotent across sweeps)."""
        fp = workload_fingerprint(workload)
        handle = self._shm_handles.get(fp)
        if handle is not None and handle.digest in self._trace_plane():
            return handle
        handle = self._trace_plane().publish(self.trace_for(workload))
        self._shm_handles[fp] = handle
        return handle

    # -- building blocks ---------------------------------------------------------

    def trace_for(self, workload: WorkloadSpec) -> Trace:
        """Materialise a workload's trace: the runner's memo, else generate.

        The last :data:`TRACE_MEMO_SIZE` traces stay memoized on the
        runner, so a sweep generates each workload's trace once, not
        once per spec.  Traces are not stored: generating one is cheaper
        than encoding it, and about as cheap as decoding it.
        """
        fp = workload_fingerprint(workload)
        trace = self._traces.get(fp)
        if trace is not None:
            return trace
        trace = generate_trace(workload)
        self._traces[fp] = trace
        while len(self._traces) > TRACE_MEMO_SIZE:
            self._traces.popitem(last=False)
        return trace

    def placement_mask(self, spec: ExperimentSpec, trace: Trace) -> np.ndarray:
        """The FastMem membership mask a spec's deployment would have."""
        n = trace.record_sizes.size
        if spec.placement == "fast":
            return np.ones(n, dtype=bool)
        mask = np.zeros(n, dtype=bool)
        if spec.placement == "split":
            mask[split_fast_keys(trace, spec.fast_fraction)] = True
        return mask

    def spec_fingerprint(self, spec: ExperimentSpec, trace: Trace) -> str:
        """A spec's experiment fingerprint: its result's cache key.

        The same fingerprint the batch executor probes the cache with
        and roots the noise streams at; sweep journals checkpoint by it.
        """
        return experiment_fingerprint_parts(
            trace_fingerprint(trace),
            profile_for(spec.engine),
            self.placement_mask(spec, trace),
            self.system_factory(),
            self._client,
        )

    # -- execution ---------------------------------------------------------------

    def run(self, spec: ExperimentSpec) -> RunResult:
        """Execute one experiment (through the cache when configured).

        When a cache is configured, the result is probed by the spec's
        fingerprint *before* the batch kernel is built, so warm runs pay
        only for trace loading and hashing.
        """
        return self.run_with_meta(spec)[0]

    def run_with_meta(
        self, spec: ExperimentSpec,
    ) -> tuple[RunResult, ExperimentMeta]:
        """:meth:`run` plus the experiment's duration and provenance."""
        ((_, ok, payload),) = run_batch(self, (spec,))
        if not ok:
            raise payload
        return payload

    def sweep(
        self,
        specs: list[ExperimentSpec],
        workers: int | None = None,
        retry: RetryPolicy | None = None,
        journal=None,
    ) -> GridOutcome:
        """Execute *specs* resiliently; never raises on partial loss.

        Failures — worker death, injected chaos, timeouts, transient
        errors — are retried up to ``retry.max_attempts`` times with
        exponential backoff.  Because every measurement is a pure
        function of its fingerprint, a retried experiment produces
        numbers bit-identical to what the lost attempt would have
        measured.  Experiments that stay broken are recorded in the
        outcome's :class:`~repro.runner.outcome.FailureReport` while
        every completed result is returned in spec order.

        Per-experiment timeouts (``retry.timeout_s``) are enforced on
        the process-pool path; setting one forces pooled execution even
        for a single worker.  The timeout bounds the wait once the
        sweep starts waiting on an experiment, so concurrent
        experiments never make each other time out.  A whole-batch wait
        is bounded by ``timeout_s`` times the batch size, preserving the
        per-experiment budget.

        Results are bit-identical across serial and pooled execution,
        every schedule, and with or without the shared-memory plane.

        ``journal`` (a :class:`~repro.store.SweepJournal`) makes the
        sweep *resumable*: every completed experiment is checkpointed
        to the store's oplog the moment its result reaches the
        coordinator, and a sweep re-run under the same run id skips the
        checkpointed work — loading each finished result from the store
        with provenance ``"journal"``.  Because results are
        content-addressed, a sweep killed at any point and resumed
        produces results bit-identical to an uninterrupted run.
        Journaling requires a cache/store (the checkpoints point at its
        rows).
        """
        if journal is not None and self.cache is None:
            raise ConfigurationError(
                "journaled sweeps need a cache/store to hold the "
                "checkpointed results; configure the runner with one"
            )
        retry = self.retry if retry is None else retry
        workers = self.workers if workers is None else workers
        workers = max(1, min(int(workers or 1), len(specs) or 1))
        n = len(specs)
        results: list[RunResult | None] = [None] * n
        metas: list[ExperimentMeta | None] = [None] * n
        attempts = [0] * n
        pending = set(range(n))
        failures: list[ExperimentFailure] = []

        fingerprints: list[str] = []
        recorded: set[int] = set()
        if journal is not None:
            fingerprints = [
                self.spec_fingerprint(spec, self.trace_for(spec.workload))
                for spec in specs
            ]
            resumed = journal.begin([spec.label for spec in specs])
            if resumed:
                done = journal.completed()
                for i, fp in enumerate(fingerprints):
                    if fp not in done:
                        continue
                    result = self.cache.get_result(fp)
                    if result is None:  # checkpoint without a row: redo
                        continue
                    results[i] = result
                    metas[i] = ExperimentMeta(
                        label=specs[i].label, duration_s=0.0,
                        provenance="journal",
                    )
                    pending.discard(i)
                    recorded.add(i)
                telemetry.count("runner.resumed", float(len(recorded)))
                telemetry.event(
                    "runner.sweep_resumed", run_id=journal.run_id,
                    n_resumed=len(recorded), n_fresh=len(pending),
                )

        def checkpoint(i: int) -> None:
            """Journal one completed experiment exactly once."""
            if journal is None or i in recorded:
                return
            recorded.add(i)
            journal.record(i, specs[i].label, fingerprints[i])

        st = _Sweep(
            specs, retry, results, metas, pending,
            on_result=None if journal is None else checkpoint,
        )
        use_pool = n > 0 and (workers > 1 or retry.timeout_s is not None)
        isolate = False
        t_start = time.perf_counter()

        with telemetry.span(
            "runner.sweep", n_specs=n, workers=workers, pooled=use_pool,
        ):
            while pending:
                order = sorted(pending)
                if not use_pool:
                    failed = self._serial_round(st, order)
                elif isolate:
                    # one spec, one worker at a time: a crash names its
                    # culprit by construction
                    failed = {}
                    for i in order:
                        failed.update(self._grouped_round(st, [i], 1)[0])
                    isolate = False
                else:
                    failed, isolate = self._grouped_round(st, order, workers)
                retryable = []
                for i, exc in failed.items():
                    attempts[i] += 1
                    if isinstance(exc, ExperimentTimeoutError):
                        telemetry.count("runner.timeouts")
                        telemetry.event(
                            "runner.timeout", label=specs[i].label,
                            attempt=attempts[i],
                        )
                    exhausted = attempts[i] >= retry.max_attempts
                    if exhausted or isinstance(exc, NON_RETRYABLE):
                        pending.discard(i)
                        telemetry.count("runner.failures")
                        telemetry.event(
                            "runner.failure", label=specs[i].label,
                            error=type(exc).__name__,
                            attempts=attempts[i],
                        )
                        failures.append(ExperimentFailure(
                            label=specs[i].label,
                            error=type(exc).__name__,
                            message=str(exc),
                            attempts=attempts[i],
                        ))
                    else:
                        retryable.append(i)
                if pending and (failed or isolate):
                    worst = max((attempts[i] for i in retryable), default=1)
                    backoff = retry.backoff_s(
                        worst, label=specs[min(pending)].label,
                    )
                    for i in retryable:
                        telemetry.count("runner.retries")
                        telemetry.event(
                            "runner.retry", label=specs[i].label,
                            attempt=attempts[i], backoff_s=backoff,
                        )
                    time.sleep(backoff)
            telemetry.count(
                "runner.experiments.completed",
                float(sum(1 for r in results if r is not None)),
            )

        if journal is not None:
            journal.finish(
                completed=sum(1 for r in results if r is not None),
                failed=len(failures),
            )
        order = {spec.label: k for k, spec in enumerate(specs)}
        failures.sort(key=lambda f: order.get(f.label, n))
        return GridOutcome(
            results=tuple(results),
            report=FailureReport(failures=tuple(failures)),
            metas=tuple(metas),
            elapsed_s=time.perf_counter() - t_start,
        )

    def _serial_round(self, st: _Sweep, order) -> dict[int, Exception]:
        """One in-process attempt at every pending spec, in order.

        Each spec is a singleton batch, so whatever its batch raises is
        its own failure.
        """
        failed: dict[int, Exception] = {}
        for i in order:
            try:
                entries = run_batch(self, (st.specs[i],), chaos=self.chaos)
            except Exception as exc:
                failed[i] = exc
            else:
                self._collect_batch(st, (None, [i]), (entries, None), failed)
        return failed

    # -- pooled dispatch ---------------------------------------------------------

    def _plan_batches(self, specs, order, splits, workers):
        """Group pending specs into placement batches.

        Specs sharing a (workload, engine) pair — one trace, one engine
        profile, one batch kernel — form a group, in first-appearance
        order.  A group is divided into ``2**level`` contiguous chunks,
        down to singletons.  The level starts at the smallest one whose
        chunks are at most 1/*workers* of the group and 1/(2 x *workers*)
        of the round — every worker gets a piece of every group and the
        pool's queue has enough batches to balance — and
        :meth:`_split_group` bumps it from there (via *splits*) on
        unattributable batch failures; the deterministic chunking is
        what makes failure attribution converge.
        """
        groups: "OrderedDict[tuple, list[int]]" = OrderedDict()
        for i in order:
            key = (workload_fingerprint(specs[i].workload), specs[i].engine)
            groups.setdefault(key, []).append(i)
        batches: list[tuple[tuple, list[int]]] = []
        for key, members in groups.items():
            bound = -(-min(2 * len(members), len(order)) // (2 * workers))
            chunks = 1
            while -(-len(members) // chunks) > bound:
                chunks *= 2
            chunks <<= splits.get(key, 0)
            if chunks >= len(members):
                batches.extend((key, [i]) for i in members)
            else:
                size = -(-len(members) // chunks)
                for s in range(0, len(members), size):
                    batches.append((key, members[s:s + size]))
        return batches

    def _split_group(self, specs, batch, splits) -> None:
        """Halve a group's batch size after an unattributable failure."""
        key, members = batch
        splits[key] = splits.get(key, 0) + 1
        spec = specs[members[0]]
        telemetry.count("runner.batch_splits")
        telemetry.event(
            "runner.batch_split", workload=spec.workload.name,
            engine=spec.engine, level=splits[key], n_specs=len(members),
        )

    def _batch_payload(self, specs, batch, handles):
        """One batch's worker payload, publishing its trace on first use.

        Publishing here, at submit time, rather than up front is what
        overlaps the coordinator's trace work for group *k+1* with the
        workers' compute on group *k*.  A workload whose publish fails
        keeps ``None`` in *handles*: its batches (this round and later)
        have their workers materialise the trace, other groups are
        unaffected.
        """
        key, members = batch
        if key[0] not in handles:
            try:
                handles[key[0]] = self._publish_trace(
                    specs[members[0]].workload
                )
            except Exception:  # shm unavailable: workers materialise
                handles[key[0]] = None
                telemetry.count("runner.shm", op="publish_failed")
        root = None if self.cache is None else str(self.cache.root)
        return (
            tuple(specs[i] for i in members), handles[key[0]],
            self.client_config, root, self.system_factory, self.chaos,
            telemetry.worker_config(),
        )

    def _collect_batch(self, st: _Sweep, batch, reply, failed) -> None:
        """Unpack one batch's per-spec replies.

        The reply is ``(entries, snapshot)``: a worker's batch-level
        telemetry snapshot is absorbed once, then each entry either
        stores a ``(result, meta)`` or records the spec's exception in
        *failed* — per-spec attribution survives batching because the
        executor reports per spec, not per batch.
        """
        _, members = batch
        entries, snapshot = reply
        if snapshot is not None:
            telemetry.absorb(snapshot)
        for local, ok, payload in entries:
            i = members[local]
            if ok:
                st.results[i], st.metas[i] = payload
                st.pending.discard(i)
                if st.on_result is not None:
                    st.on_result(i)
            else:
                failed[i] = payload

    def _settle(self, st: _Sweep, batch, fut, failed) -> str:
        """Wait on one batch future and file what came back.

        ``"ok"``: per-spec replies are stored, in-band failures (raised
        exceptions, injected faults) attributed exactly in *failed*.
        ``"timeout"`` / ``"error"``: the batch as a whole blew its time
        budget or raised, which cannot name a culprit inside a
        multi-spec batch — its group is *split* (see
        :meth:`_plan_batches`) and retried uncharged at finer
        granularity; a singleton batch's failure is charged directly.
        ``"died"``: the pool broke; nothing is filed, the round decides
        who to suspect.
        """
        _, members = batch
        timeout_s = st.retry.timeout_s
        try:
            self._collect_batch(
                st, batch,
                fut.result(
                    timeout=None if timeout_s is None
                    else timeout_s * len(members)
                ),
                failed,
            )
            return "ok"
        except BrokenProcessPool:
            telemetry.count("runner.worker_deaths")
            return "died"
        except FuturesTimeoutError:
            fate = "timeout"
            exc = ExperimentTimeoutError(
                f"{st.specs[members[0]].label} exceeded the "
                f"{timeout_s:g}s per-experiment timeout"
            )
        except Exception as raised:
            fate, exc = "error", raised
        if len(members) == 1:
            failed[members[0]] = exc
        else:
            self._split_group(st.specs, batch, st.splits)
        return fate

    def _grouped_round(self, st: _Sweep, order, workers):
        """One pooled attempt at the specs in *order*, batch by batch.

        Returns ``(failed, broke)``.  :meth:`_settle` files every batch
        that comes back.  When a worker dies it takes the whole pool
        with it and the uncollected batches cannot be told apart from
        the killer, so nobody's attempt budget is charged: a lone
        suspect is convicted outright, otherwise every suspect
        multi-spec batch has its group split for the next round.  Only
        when every suspect batch is already a singleton does the round
        report ``broke=True`` — the sweep then runs each pending spec in
        a round of its own.
        """
        specs, pending = st.specs, st.pending
        failed: dict[int, Exception] = {}
        batches = self._plan_batches(specs, order, st.splits, workers)
        pool = self._ensure_pool(workers)
        futs = {}
        try:
            for b, batch in enumerate(batches):
                futs[b] = pool.submit(
                    _worker_run_batch,
                    self._batch_payload(specs, batch, st.handles),
                )
        except BrokenProcessPool as exc:
            # a worker died while later groups were still being published:
            # the unsubmitted batches are lost like the in-flight ones
            lost = Future()
            lost.set_exception(exc)
            for b in range(len(futs), len(batches)):
                futs[b] = lost
        settled: set[int] = set()
        fate = "ok"
        try:
            for b, batch in enumerate(batches):
                fate = self._settle(st, batch, futs[b], failed)
                if fate == "died":
                    telemetry.event(
                        "runner.pool_broken",
                        label=specs[batch[1][0]].label,
                        n_pending=len([j for j in order if j in pending]),
                    )
                    break
                settled.add(b)
                if fate == "timeout":
                    break
        finally:
            # salvage batches that finished before the round broke
            for b, batch in enumerate(batches):
                if b in settled or not futs[b].done():
                    continue
                try:
                    self._collect_batch(
                        st, batch, futs[b].result(timeout=0), failed,
                    )
                except Exception:
                    pass
            if fate in ("died", "timeout"):
                self._discard_pool(kill=True)

        if fate != "died":
            return failed, False
        still = [i for i in order if i in pending and i not in failed]
        if len(still) == 1:
            # a single suspect needs no further round to be convicted
            failed[still[0]] = FaultError(
                f"worker process died while running {specs[still[0]].label}"
            )
            return failed, False
        split_any = False
        for b, batch in enumerate(batches):
            if b in settled or len(batch[1]) == 1:
                continue
            if any(i in still for i in batch[1]):
                self._split_group(specs, batch, st.splits)
                split_any = True
        # a split is an uncharged retry at finer granularity
        return failed, not split_any

    def run_grid(
        self, specs: list[ExperimentSpec], workers: int | None = None,
    ) -> list[RunResult]:
        """Execute *specs*, preserving order; parallel when workers > 1.

        Results are bit-identical to a serial :meth:`run` loop: each
        task's noise streams derive from its experiment fingerprint, so
        scheduling cannot leak into the numbers.  Transient failures
        are retried per the runner's :class:`RetryPolicy`; if any
        experiment stays broken this raises
        :class:`~repro.errors.FaultError` (use :meth:`sweep` for the
        gracefully-degrading variant).
        """
        outcome = self.sweep(specs, workers=workers)
        outcome.raise_if_failed()
        return list(outcome.results)

    def baselines(self, workload: WorkloadSpec, engine: str = "redis"):
        """FastMem/SlowMem baselines for one (workload, engine) pair.

        Returns a :class:`~repro.core.sensitivity.PerformanceBaselines`,
        the structure the Estimate Engine consumes.
        """
        from repro.core.sensitivity import PerformanceBaselines
        fast, slow = self.run_grid([
            ExperimentSpec(workload=workload, engine=engine, placement="fast"),
            ExperimentSpec(workload=workload, engine=engine, placement="slow"),
        ])
        return PerformanceBaselines(fast=fast, slow=slow)

    @staticmethod
    def grid(
        workloads,
        engines=("redis",),
        placements=("fast", "slow"),
        fast_fractions=(0.0,),
    ) -> list[ExperimentSpec]:
        """The cross product of the given axes as a list of specs.

        ``fast_fractions`` only multiplies cells whose placement is
        ``"split"``; baseline placements appear once each.
        """
        specs = []
        for workload in workloads:
            for engine in engines:
                for placement in placements:
                    fracs = fast_fractions if placement == "split" else (0.0,)
                    for frac in fracs:
                        specs.append(ExperimentSpec(
                            workload=workload,
                            engine=engine,
                            placement=placement,
                            fast_fraction=frac,
                        ))
        return specs


def default_workers() -> int:
    """A sensible process count for parallel grids (>= 1)."""
    return max(1, os.cpu_count() or 1)

#: Per-worker runner memo: a pool worker serves many batches of the same
#: sweep (and later sweeps from the same runner), so the serial runner —
#: whose client carries the hitmask and trace-digest memos — is rebuilt
#: only when the configuration changes.  Holds one entry: sweeps do not
#: interleave configurations within a worker's lifetime.
_WORKER_RUNNERS: dict = {}


def _worker_runner(client_config, cache_root, system_factory):
    key = (client_config, cache_root, system_factory)
    try:
        runner = _WORKER_RUNNERS.get(key)
    except TypeError:  # unhashable config: build fresh every batch
        key = None
        runner = None
    if runner is None:
        runner = ExperimentRunner(
            cache=cache_root,
            client=client_config,
            system_factory=system_factory,
            workers=None,
        )
        if key is not None:
            _WORKER_RUNNERS.clear()
            _WORKER_RUNNERS[key] = runner
    return runner


def _worker_run_batch(payload):
    """Process-pool entry point: :func:`run_batch` on a memoized runner.

    Chaos strikes happen inside the worker, so an ``exit`` strike kills
    a real worker process (exactly the failure mode
    ``BrokenProcessPool`` recovery exists for) without ever touching
    the coordinating process.

    When the coordinator runs under a telemetry session, the payload
    carries a :class:`~repro.telemetry.session.WorkerTelemetry` config;
    the worker then collects its own spans/metrics (rooted at the
    coordinator's sweep span) and ships the snapshot back beside the
    per-spec entries.  Workers are reused across batches, so the
    session is always drained before returning.
    """
    specs, handle, client_config, cache_root, system_factory, chaos, tele = (
        payload
    )
    telemetry.activate_worker(tele)
    try:
        runner = _worker_runner(client_config, cache_root, system_factory)
        entries = run_batch(runner, specs, handle, chaos, allow_exit=True)
    finally:
        snapshot = telemetry.drain_worker()
    return entries, snapshot
