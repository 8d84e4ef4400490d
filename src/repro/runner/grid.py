"""Experiment grids with deterministic results and retries.

:class:`ExperimentRunner` executes workload x store x placement grids
in process.  Two properties make its results reproducible:

- every experiment is described by an :class:`ExperimentSpec`
  (engines are named, not passed as live objects);
- noise seeds derive from the experiment fingerprint, so a spec
  measures the same numbers whichever sweep, batch or retry runs it.

The same fingerprint-derived determinism makes the pipeline *crash
tolerant for free*: a retried experiment measures exactly the numbers
the failed attempt would have, so :meth:`ExperimentRunner.sweep`
recovers from injected chaos and transient errors with bounded,
backoff-spaced retries — and a sweep that still loses experiments
returns every completed result plus a structured
:class:`~repro.runner.outcome.FailureReport` instead of raising
(:meth:`run_grid` keeps the raise-on-failure contract for callers that
want it).

A sweep runs one :func:`repro.runner.executor.run_batch` per (workload,
engine) group — one trace, one engine profile, one batch kernel.
Groups run workload by workload and the runner memoizes only the last
trace, so a sweep generates each workload's trace once and holds at
most one at a time; a journaled sweep fingerprints, recalls and
checkpoints group by group too.  What a sweep takes and returns —
specs, client config, retry policy, outcome — are the value types of
:mod:`repro.runner.spec` and :mod:`repro.runner.outcome`.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro import telemetry
from repro.errors import ConfigurationError
from repro.kvstore.profiles import profile_for
from repro.memsim.system import HybridMemorySystem
from repro.runner.cache import ensure_cache
from repro.runner.executor import run_batch
from repro.runner.fingerprint import (
    experiment_fingerprint_parts,
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
from repro.runner.spec import ClientConfig, ExperimentSpec, split_fast_keys
from repro.ycsb.client import RunResult
from repro.ycsb.generator import generate_trace
from repro.ycsb.workload import Trace, WorkloadSpec

if TYPE_CHECKING:
    from repro.store.store import SQLiteStore


@dataclass
class _Sweep:
    """One sweep's bookkeeping, shared by its retry rounds.

    ``results`` / ``metas`` fill in spec order as ``pending`` drains.
    A journaled sweep also carries its ``journal``, the fingerprints it
    checkpoints under (``fingerprints``, filled group by group) and the
    journal's completed fingerprints (``done``: empty unless resuming).
    """

    specs: list
    results: list
    metas: list
    pending: set
    journal: object = None
    done: dict = field(default_factory=dict)
    fingerprints: dict = field(default_factory=dict)


class ExperimentRunner:
    """Executes experiment grids with caching and retries, in process.

    Parameters
    ----------
    cache:
        Result store (a :class:`~repro.store.SQLiteStore`, the path of
        its file, or None to disable caching).
    client:
        Client settings applied to every experiment.
    system_factory:
        Builds a fresh hybrid memory system per batch (default: the
        Table I testbed).
    retry:
        The :class:`~repro.runner.outcome.RetryPolicy` governing the
        retry budget and backoff of :meth:`sweep` / :meth:`run_grid`.
    chaos:
        Optional :class:`~repro.faults.ChaosPlan` striking experiments
        (raised failures or hangs) — the fault-injection hook the chaos
        tests and game-days use.

    A runner holds no process or pool; :meth:`close` (the runner is
    also a context manager) drops its memoized trace.
    """

    def __init__(
        self,
        cache: SQLiteStore | str | None = None,
        client: ClientConfig = ClientConfig(),
        system_factory=HybridMemorySystem.testbed,
        retry: RetryPolicy = RetryPolicy(),
        chaos=None,
    ):
        self.cache = ensure_cache(cache)
        self.system_factory = system_factory
        self.retry = retry
        self.chaos = chaos
        self._client = client.build(self.cache)
        self._trace: tuple[str, Trace] | None = None

    def close(self) -> None:
        """Drop the memoized trace."""
        self._trace = None

    def __enter__(self) -> "ExperimentRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- building blocks ---------------------------------------------------------

    def trace_for(self, workload: WorkloadSpec) -> Trace:
        """Materialise a workload's trace: the runner's memo, else generate.

        The runner memoizes the last trace only, and drops it before
        generating the next, so it never holds two; a sweep runs its
        groups workload by workload, so it still generates each
        workload's trace once.  Traces are not stored:
        generating one is cheaper than encoding it, and about as cheap
        as decoding it.
        """
        fp = workload_fingerprint(workload)
        if self._trace is not None and self._trace[0] == fp:
            return self._trace[1]
        self._trace = None
        trace = generate_trace(workload)
        self._trace = (fp, trace)
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
            trace.digest,
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

        Failures — injected chaos, transient errors — are retried up to
        ``retry.max_attempts`` times with exponential backoff.  Because
        every measurement is a pure function of its fingerprint, a
        retried experiment produces numbers bit-identical to what the
        failed attempt would have measured.  Experiments that stay
        broken are recorded in the outcome's
        :class:`~repro.runner.outcome.FailureReport` while every
        completed result is returned in spec order.

        ``workers`` is accepted and ignored: every sweep runs in
        process.  It stays until the benchmark harness stops passing it.

        ``journal`` (a :class:`~repro.store.SweepJournal`) makes the
        sweep *resumable*: every completed experiment is checkpointed
        to the store's oplog as its batch finishes, and a sweep re-run
        under the same run id skips the checkpointed work — loading each
        finished result from the store with provenance ``"journal"``.
        Because results are content-addressed, a sweep killed at any
        point and resumed produces results bit-identical to an
        uninterrupted run.  Journaling requires a cache/store (the
        checkpoints point at its rows).
        """
        if journal is not None and self.cache is None:
            raise ConfigurationError(
                "journaled sweeps need a cache/store to hold the "
                "checkpointed results; configure the runner with one"
            )
        retry = self.retry if retry is None else retry
        n = len(specs)
        st = _Sweep(specs, [None] * n, [None] * n, set(range(n)), journal)
        resumed = journal is not None and journal.begin(
            [spec.label for spec in specs]
        )
        if resumed:
            st.done = journal.completed()
        attempts = [0] * n
        failures: list[ExperimentFailure] = []
        t_start = time.perf_counter()

        with telemetry.span("runner.sweep", n_specs=n):
            while st.pending:
                failed = self._round(st, sorted(st.pending))
                retryable = []
                for i, exc in failed.items():
                    attempts[i] += 1
                    exhausted = attempts[i] >= retry.max_attempts
                    if exhausted or isinstance(exc, NON_RETRYABLE):
                        st.pending.discard(i)
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
                if retryable:
                    worst = max(attempts[i] for i in retryable)
                    backoff = retry.backoff_s(
                        worst, label=specs[min(st.pending)].label,
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
                float(sum(1 for r in st.results if r is not None)),
            )

        if resumed:
            n_resumed = sum(
                1 for m in st.metas
                if m is not None and m.provenance == "journal"
            )
            telemetry.count("runner.resumed", float(n_resumed))
            telemetry.event(
                "runner.sweep_resumed", run_id=journal.run_id,
                n_resumed=n_resumed, n_fresh=n - n_resumed,
            )
        if journal is not None:
            journal.finish(
                completed=sum(1 for r in st.results if r is not None),
                failed=len(failures),
            )
        order = {spec.label: k for k, spec in enumerate(specs)}
        failures.sort(key=lambda f: order.get(f.label, n))
        return GridOutcome(
            results=tuple(st.results),
            report=FailureReport(failures=tuple(failures)),
            metas=tuple(st.metas),
            elapsed_s=time.perf_counter() - t_start,
        )

    def _round(self, st: _Sweep, order) -> dict[int, Exception]:
        """One attempt at every pending spec, one batch per group.

        Each (workload, engine) group is one batch — one trace, one
        kernel.  Replies are per spec, so one bad spec does not block
        its batch-mates; what a batch raises as a whole (no trace, no
        kernel inputs) is charged to each of its pending members.  A
        kept exception's frames are cleared, so its traceback does not
        hold the batch's trace past the batch.
        """
        failed: dict[int, Exception] = {}
        for members in self._groups(st.specs, order).values():
            try:
                if st.journal is not None:
                    members = self._recall(st, members)
                    if not members:
                        continue
                entries = run_batch(
                    self, tuple(st.specs[i] for i in members),
                    chaos=self.chaos,
                )
            except Exception as exc:
                traceback.clear_frames(exc.__traceback__)
                failed.update(
                    (i, exc) for i in members if i in st.pending
                )
                continue
            for local, ok, payload in entries:
                i = members[local]
                if not ok:
                    traceback.clear_frames(payload.__traceback__)
                    failed[i] = payload
                    continue
                st.results[i], st.metas[i] = payload
                st.pending.discard(i)
                if st.journal is not None:
                    st.journal.record(
                        i, st.specs[i].label, st.fingerprints[i],
                    )
        return failed

    def _recall(self, st: _Sweep, members: list[int]) -> list[int]:
        """Fingerprint a journaled group; recall its checkpointed specs.

        Returns the members still to run.  A checkpoint whose result row
        is missing is run again.
        """
        trace = self.trace_for(st.specs[members[0]].workload)
        left = []
        for i in members:
            fp = st.fingerprints.get(i)
            if fp is None:
                fp = st.fingerprints[i] = self.spec_fingerprint(
                    st.specs[i], trace,
                )
            result = self.cache.get_result(fp) if fp in st.done else None
            if result is None:
                left.append(i)
                continue
            st.results[i] = result
            st.metas[i] = ExperimentMeta(
                label=st.specs[i].label, duration_s=0.0,
                provenance="journal",
            )
            st.pending.discard(i)
        return left

    @staticmethod
    def _groups(specs, order) -> dict[tuple, list[int]]:
        """Pending specs by (workload, engine), workload by workload.

        A workload's groups are adjacent, in order of the workload's
        first appearance, so the one-trace memo generates each workload
        once.  Each distinct workload object is fingerprinted once: the
        specs of a grid share them.
        """
        by_workload: dict[str, dict[str, list[int]]] = {}
        fingerprints: dict[int, str] = {}
        for i in order:
            workload = specs[i].workload
            fp = fingerprints.get(id(workload))
            if fp is None:
                fp = workload_fingerprint(workload)
                fingerprints[id(workload)] = fp
            engines = by_workload.setdefault(fp, {})
            engines.setdefault(specs[i].engine, []).append(i)
        return {
            (fp, engine): members
            for fp, engines in by_workload.items()
            for engine, members in engines.items()
        }

    def run_grid(self, specs: list[ExperimentSpec]) -> list[RunResult]:
        """Execute *specs*, preserving order.

        Results are bit-identical to a :meth:`run` loop: each spec's
        noise streams derive from its experiment fingerprint, so
        batching cannot leak into the numbers.  Transient failures
        are retried per the runner's :class:`RetryPolicy`; if any
        experiment stays broken this raises
        :class:`~repro.errors.FaultError` (use :meth:`sweep` for the
        gracefully-degrading variant).
        """
        outcome = self.sweep(specs)
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
