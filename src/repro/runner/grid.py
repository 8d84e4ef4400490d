"""Parallel experiment grids with deterministic results and retries.

:class:`ExperimentRunner` executes workload x store x placement grids,
optionally across a :class:`~concurrent.futures.ProcessPoolExecutor`.
Three properties make the parallel path safe:

- every experiment is described by a picklable :class:`ExperimentSpec`
  (engines are named, not passed as live objects);
- noise seeds derive from the experiment fingerprint, so a task measures
  the same numbers no matter which process or schedule runs it —
  parallel grids are bit-identical to serial ones;
- cache writes are atomic, so workers can share one cache directory.

The same fingerprint-derived determinism makes the pipeline *crash
tolerant for free*: a retried experiment measures exactly the numbers
the crashed attempt would have, so :meth:`ExperimentRunner.sweep` can
recover from worker death (``BrokenProcessPool``), injected chaos, and
per-experiment timeouts with bounded, backoff-spaced retries — and a
sweep that still loses experiments returns every completed result plus
a structured :class:`FailureReport` instead of raising
(:meth:`run_grid` keeps the raise-on-failure contract for callers that
want it).

Pooled sweeps are *planned*, not scattered: specs sharing a (workload,
engine) pair — one trace, one engine profile, one batch kernel — are
dispatched as whole placement batches to workers, which execute them
through the batch kernel (:class:`~repro.runner.caching.PlacementBatch`
with the ``grouped_batch`` telemetry path label), in batches small
enough that every worker gets a share of every group.  Traces travel
once per sweep through a shared-memory plane (:mod:`repro.runner.shm`)
instead of once per task through pickles or the disk cache — each one
published as its group's first batch is submitted, so the coordinator
prepares the next trace while the workers compute on this one — the worker
pool persists across retry rounds *and* across sweeps (the guard loop
and repeated CLI sweeps stop paying pool spin-up), and per-spec failure
attribution survives batching: worker replies are per-spec, and
unattributable batch failures (pool death, batch timeouts) deterministically
split the group into halves until the culprit stands alone.  Results,
fingerprints and cache entries are bit-identical to the serial and
per-cell paths; ``plan="cell"`` / ``use_shm=False`` are escape hatches.

Placements:

``"fast"``
    Every record on FastMem (the best-case baseline).
``"slow"``
    Every record on SlowMem (the worst-case baseline).
``"split"``
    The hottest keys — ranked by access count, ties broken by key id —
    on FastMem up to ``fast_fraction`` of the total payload bytes (a
    Fig 5-style capacity sweep point).
"""

from __future__ import annotations

import os
import time
import weakref
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

import numpy as np

from repro import telemetry
from repro.errors import (
    ConfigurationError,
    ExperimentTimeoutError,
    FaultError,
    WorkloadError,
)
from repro.rng import derive_seed
from repro.kvstore.dynamolike import DynamoLike
from repro.kvstore.memcachedlike import MemcachedLike
from repro.kvstore.redislike import RedisLike
from repro.kvstore.server import HybridDeployment
from repro.memsim.system import HybridMemorySystem
from repro.kvstore.profiles import profile_for
from repro.runner.cache import ResultCache, ensure_cache
from repro.runner.caching import CachingClient, PlacementBatch
from repro.runner.fingerprint import (
    experiment_fingerprint_parts,
    trace_fingerprint,
    workload_fingerprint,
)
from repro.runner.shm import SharedTraceHandle, TracePlane, attach_trace
from repro.ycsb.client import DEFAULT_PERCENTILES, RunResult, YCSBClient
from repro.ycsb.generator import generate_trace
from repro.ycsb.workload import Trace, WorkloadSpec

#: Engine factories by CLI name; grid specs reference engines by name so
#: they stay picklable across process boundaries.
ENGINE_FACTORIES = {
    "redis": RedisLike,
    "memcached": MemcachedLike,
    "dynamodb": DynamoLike,
}

#: Placement modes an :class:`ExperimentSpec` may request.
PLACEMENTS = ("fast", "slow", "split")

#: Sweep dispatch plans.  ``"auto"`` resolves to grouped-batch dispatch
#: on the pool path (the fast default); ``"grouped"`` forces it;
#: ``"cell"`` restores one task per grid cell.
PLANS = ("auto", "grouped", "cell")

#: Traces a runner keeps decoded (:meth:`ExperimentRunner.trace_for`).
TRACE_MEMO_SIZE = 8

#: Errors that retrying cannot fix (bad inputs, not transient faults).
NON_RETRYABLE = (ConfigurationError, WorkloadError)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    Parameters
    ----------
    max_attempts:
        Attempts per experiment (1 = no retries).
    timeout_s:
        Per-experiment timeout in seconds (None = unlimited).  Enforced
        on the process-pool path; a sweep with a timeout therefore runs
        pooled even for ``workers=1``.
    backoff_base_s / backoff_factor:
        Sleep before retry *k* (1-based) is
        ``backoff_base_s * backoff_factor**(k - 1)``, scaled by jitter.
    jitter:
        Relative jitter width added on top of the exponential backoff.
        Derived from a hash of (label, attempt) rather than wall-clock
        entropy, so resilience behaviour is as replayable as the
        measurements themselves.
    """

    max_attempts: int = 3
    timeout_s: float | None = None
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigurationError(
                f"timeout_s must be positive, got {self.timeout_s}"
            )
        if self.backoff_base_s < 0 or self.backoff_factor < 1:
            raise ConfigurationError(
                "backoff_base_s must be >= 0 and backoff_factor >= 1"
            )
        if self.jitter < 0:
            raise ConfigurationError(f"jitter must be >= 0, got {self.jitter}")

    def backoff_s(self, attempt: int, label: str = "") -> float:
        """Sleep before retry *attempt* (1-based), jittered."""
        base = self.backoff_base_s * self.backoff_factor ** (attempt - 1)
        u = derive_seed(None, f"{label}/backoff/{attempt}") / 2.0**32
        return base * (1.0 + self.jitter * u)


@dataclass(frozen=True)
class ExperimentFailure:
    """One experiment a sweep could not complete."""

    label: str
    error: str
    message: str
    attempts: int

    def __str__(self) -> str:
        return (
            f"{self.label}: {self.error}: {self.message} "
            f"({self.attempts} attempt{'s' if self.attempts != 1 else ''})"
        )


@dataclass(frozen=True)
class FailureReport:
    """Structured record of everything a sweep failed to complete."""

    failures: tuple[ExperimentFailure, ...] = ()

    @property
    def ok(self) -> bool:
        """True when the sweep completed every experiment."""
        return not self.failures

    def __len__(self) -> int:
        return len(self.failures)

    def summary(self) -> str:
        """Multi-line human-readable account of the failures."""
        if self.ok:
            return "all experiments completed"
        lines = [f"{len(self.failures)} experiment(s) failed:"]
        lines += [f"  - {f}" for f in self.failures]
        return "\n".join(lines)


@dataclass(frozen=True)
class ExperimentMeta:
    """How one experiment was obtained (not *what* it measured).

    ``provenance`` is ``"cache"`` (recalled from the result cache),
    ``"computed"`` (measured fresh through the simulator),
    ``"uncached"`` (measured with no cache configured) or ``"journal"``
    (restored from a sweep journal checkpoint on resume).  ``duration_s``
    is the experiment's wall-clock time in the process that ran it.
    ``telemetry`` carries a pool worker's
    :class:`~repro.telemetry.session.TelemetrySnapshot` back to the
    coordinator; it is stripped before the meta lands in a
    :class:`GridOutcome`.
    """

    label: str
    duration_s: float
    provenance: str
    telemetry: object | None = None


@dataclass(frozen=True)
class GridOutcome:
    """What a resilient sweep produced.

    ``results`` preserves spec order, with ``None`` at the slots of
    failed experiments; ``report`` explains every ``None``; ``metas``
    (parallel to ``results``) records each experiment's wall-clock
    duration and cache provenance.  ``elapsed_s`` is the sweep's true
    elapsed wall clock on the coordinator — parallel sweeps finish in
    far less time than the per-experiment durations sum to.
    """

    results: tuple[RunResult | None, ...]
    report: FailureReport = field(default_factory=FailureReport)
    metas: tuple[ExperimentMeta | None, ...] = ()
    elapsed_s: float = 0.0

    @property
    def completed(self) -> list[RunResult]:
        """The successful results, in spec order."""
        return [r for r in self.results if r is not None]

    @property
    def ok(self) -> bool:
        """True when every experiment completed."""
        return self.report.ok

    @property
    def durations(self) -> tuple[float | None, ...]:
        """Per-experiment wall-clock seconds, in spec order."""
        return tuple(
            m.duration_s if m is not None else None for m in self.metas
        )

    @property
    def provenance(self) -> tuple[str | None, ...]:
        """Per-experiment cache provenance, in spec order."""
        return tuple(
            m.provenance if m is not None else None for m in self.metas
        )

    def summary(self) -> str:
        """Human-readable account: completion, timing, provenance."""
        n = len(self.results)
        done = len(self.completed)
        lines = [f"completed {done}/{n} experiment(s)"]
        metas = [m for m in self.metas if m is not None]
        if metas:
            total = sum(m.duration_s for m in metas)
            counts: dict[str, int] = {}
            for m in metas:
                counts[m.provenance] = counts.get(m.provenance, 0) + 1
            mix = ", ".join(
                f"{counts[k]} {k}" for k in sorted(counts)
            )
            lines.append(f"compute: {total:.3f}s aggregate ({mix})")
            resumed = counts.get("journal", 0)
            if resumed:
                lines.append(
                    f"resume: {resumed} resumed from journal, "
                    f"{len(metas) - resumed} fresh"
                )
            if self.elapsed_s > 0:
                lines.append(f"wall clock: {self.elapsed_s:.3f}s elapsed")
            slowest = max(metas, key=lambda m: m.duration_s)
            lines.append(
                f"slowest: {slowest.label} "
                f"({slowest.duration_s:.3f}s, {slowest.provenance})"
            )
        if not self.report.ok:
            lines.append(self.report.summary())
        return "\n".join(lines)

    def raise_if_failed(self) -> "GridOutcome":
        """Raise :class:`~repro.errors.FaultError` on any failure."""
        if not self.report.ok:
            raise FaultError(self.report.summary())
        return self


@dataclass(frozen=True)
class ClientConfig:
    """Picklable description of a measuring client.

    Mirrors the :class:`~repro.ycsb.client.YCSBClient` constructor, but
    the seed must be an integer (or None): live generators can be
    neither pickled nor fingerprinted.  ``faults`` is an optional
    :class:`~repro.faults.FaultSpec` — a frozen dataclass, so the config
    stays picklable and fingerprintable with faults attached.
    """

    repeats: int = 3
    noise_sigma: float = 0.01
    use_llc: bool = False
    percentiles: tuple[float, ...] = DEFAULT_PERCENTILES
    seed: int | None = None
    concurrency: int = 1
    contention: float = 0.15
    faults: object | None = None

    def build(self, cache: ResultCache | None = None) -> YCSBClient:
        """Construct the client (caching when a cache is supplied)."""
        kwargs = dict(
            repeats=self.repeats,
            noise_sigma=self.noise_sigma,
            use_llc=self.use_llc,
            percentiles=self.percentiles,
            seed=self.seed,
            concurrency=self.concurrency,
            contention=self.contention,
            faults=self.faults,
        )
        if cache is not None:
            return CachingClient(cache=cache, **kwargs)
        return YCSBClient(**kwargs)


@dataclass(frozen=True)
class ExperimentSpec:
    """One cell of an experiment grid (picklable, fingerprintable)."""

    workload: WorkloadSpec
    engine: str = "redis"
    placement: str = "slow"
    fast_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.engine not in ENGINE_FACTORIES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; "
                f"choose from {sorted(ENGINE_FACTORIES)}"
            )
        if self.placement not in PLACEMENTS:
            raise ConfigurationError(
                f"unknown placement {self.placement!r}; "
                f"choose from {PLACEMENTS}"
            )
        if not 0.0 <= self.fast_fraction <= 1.0:
            raise ConfigurationError(
                f"fast_fraction must be in [0, 1], got {self.fast_fraction}"
            )

    @property
    def label(self) -> str:
        """Short human-readable identifier for logs and tables."""
        tail = (
            f"split{self.fast_fraction:.2f}"
            if self.placement == "split" else self.placement
        )
        return f"{self.workload.name}/{self.engine}/{tail}"


def split_fast_keys(trace: Trace, fraction: float) -> np.ndarray:
    """Hottest keys filling *fraction* of the payload bytes.

    Keys are ranked by access count (descending, ties by ascending key
    id) and taken greedily while the cumulative payload stays within the
    byte budget — deterministic for a given trace.
    """
    counts = np.bincount(trace.keys, minlength=trace.record_sizes.size)
    order = np.argsort(-counts, kind="stable")
    budget = fraction * float(trace.record_sizes.sum())
    within = np.cumsum(trace.record_sizes[order]) <= budget
    return order[within]


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


class ExperimentRunner:
    """Executes experiment grids with caching and optional parallelism.

    Parameters
    ----------
    cache:
        Result cache (a :class:`~repro.runner.cache.ResultCache`, a
        directory path, or None to disable caching).
    client:
        Client settings applied to every experiment.
    system_factory:
        Builds a fresh hybrid memory system per deployment.  Must be
        picklable (a module-level callable) for parallel grids; the
        default Table I testbed is.
    workers:
        Default process count for :meth:`run_grid` (None = serial).
    retry:
        The :class:`RetryPolicy` governing timeouts, retry budget and
        backoff for :meth:`sweep` / :meth:`run_grid`.
    chaos:
        Optional :class:`~repro.faults.ChaosPlan` striking experiments
        (worker kills / failures / hangs) — the fault-injection hook the
        chaos tests and game-days use.  Serial runs downgrade ``exit``
        strikes to raised :class:`~repro.errors.FaultError`\\ s so chaos
        never kills the calling process.
    plan:
        Default sweep dispatch plan (one of :data:`PLANS`).
    use_shm:
        Whether grouped sweeps publish traces through the shared-memory
        plane (:mod:`repro.runner.shm`).  ``False`` makes workers fall
        back to the trace cache / regeneration.

    The runner owns two persistent resources: a process pool that
    survives across retry rounds and across sweeps, and the
    shared-memory trace plane.  Both are released by :meth:`close`
    (the runner is also a context manager) or, failing that, by a
    finalizer at garbage collection.
    """

    def __init__(
        self,
        cache: ResultCache | str | None = None,
        client: ClientConfig = ClientConfig(),
        system_factory=HybridMemorySystem.testbed,
        workers: int | None = None,
        retry: RetryPolicy = RetryPolicy(),
        chaos=None,
        plan: str = "auto",
        use_shm: bool = True,
    ):
        if plan not in PLANS:
            raise ConfigurationError(
                f"unknown plan {plan!r}; choose from {PLANS}"
            )
        self.cache = ensure_cache(cache)
        self.client_config = client
        self.system_factory = system_factory
        self.workers = workers
        self.retry = retry
        self.chaos = chaos
        self.plan = plan
        self.use_shm = bool(use_shm)
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
        """Materialise a workload's trace, via the trace cache if present.

        The last :data:`TRACE_MEMO_SIZE` traces stay memoized on the
        runner, so a sweep decodes (or generates) each workload's trace
        once, not once per spec.
        """
        fp = workload_fingerprint(workload)
        trace = self._traces.get(fp)
        if trace is not None:
            return trace
        if self.cache is not None:
            trace = self.cache.get_trace(fp)
        if trace is None:
            trace = generate_trace(workload)
            if self.cache is not None:
                self.cache.put_trace(fp, trace)
        self._traces[fp] = trace
        while len(self._traces) > TRACE_MEMO_SIZE:
            self._traces.popitem(last=False)
        return trace

    def deployment_for(
        self, spec: ExperimentSpec, trace: Trace,
    ) -> HybridDeployment:
        """Build the deployment a spec describes."""
        factory = ENGINE_FACTORIES[spec.engine]
        system = self.system_factory()
        if spec.placement == "fast":
            return HybridDeployment.all_fast(
                factory, system, trace.record_sizes
            )
        if spec.placement == "slow":
            return HybridDeployment.all_slow(
                factory, system, trace.record_sizes
            )
        fast_keys = split_fast_keys(trace, spec.fast_fraction)
        return HybridDeployment(
            factory, system, trace.record_sizes, fast_keys=fast_keys
        )

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
        """Experiment fingerprint computed without building a deployment.

        Matches what the caching client computes after construction, so
        warm-cache probes skip record loading entirely.
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
        fingerprint *before* the deployment is built, so warm runs pay
        only for trace loading and hashing.
        """
        return self.run_with_meta(spec)[0]

    def run_with_meta(
        self, spec: ExperimentSpec,
    ) -> tuple[RunResult, ExperimentMeta]:
        """:meth:`run` plus the experiment's duration and provenance."""
        start = time.perf_counter()
        with telemetry.span("runner.experiment", label=spec.label) as sp:
            trace = self.trace_for(spec.workload)
            provenance = "uncached" if self.cache is None else "computed"
            result = None
            if self.cache is not None:
                result = self.cache.get_result(
                    self.spec_fingerprint(spec, trace)
                )
                if result is not None:
                    provenance = "cache"
            if result is None:
                hits_before = getattr(self._client, "cache_hits", 0)
                result = self._client.execute(
                    trace, self.deployment_for(spec, trace)
                )
                if getattr(self._client, "cache_hits", 0) > hits_before:
                    provenance = "cache"
            sp.set("provenance", provenance)
        return result, ExperimentMeta(
            label=spec.label,
            duration_s=time.perf_counter() - start,
            provenance=provenance,
        )

    def _run_one(self, spec: ExperimentSpec) -> tuple[RunResult, ExperimentMeta]:
        """Serial execution of one spec, honouring the chaos plan."""
        if self.chaos is not None:
            self.chaos.maybe_strike(spec.label, allow_exit=False)
        return self.run_with_meta(spec)

    def _payload(self, spec: ExperimentSpec):
        root = None if self.cache is None else str(self.cache.root)
        return (
            spec, self.client_config, root, self.system_factory, self.chaos,
            telemetry.worker_config(),
        )

    def sweep(
        self,
        specs: list[ExperimentSpec],
        workers: int | None = None,
        retry: RetryPolicy | None = None,
        plan: str | None = None,
        use_shm: bool | None = None,
        journal=None,
    ) -> GridOutcome:
        """Execute *specs* resiliently; never raises on partial loss.

        Failures — worker death, injected chaos, timeouts, transient
        errors — are retried up to ``retry.max_attempts`` times with
        exponential backoff.  Because every measurement is a pure
        function of its fingerprint, a retried experiment produces
        numbers bit-identical to what the lost attempt would have
        measured.  Experiments that stay broken are recorded in the
        outcome's :class:`FailureReport` while every completed result
        is returned in spec order.

        Per-experiment timeouts (``retry.timeout_s``) are enforced on
        the process-pool path; setting one forces pooled execution even
        for a single worker.  The timeout bounds the wait once the
        sweep starts waiting on an experiment, so concurrent
        experiments never make each other time out.  A whole-batch wait
        on the grouped path is bounded by ``timeout_s`` times the batch
        size, preserving the per-experiment budget.

        ``plan`` selects the pooled dispatch strategy (see
        :data:`PLANS`): grouped placement batches by default, one task
        per grid cell with ``"cell"``.  ``use_shm`` controls the
        shared-memory trace plane on the grouped path.  Both default to
        the runner's settings; results are bit-identical across every
        plan, schedule and shm setting.

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
        plan = self.plan if plan is None else plan
        if plan not in PLANS:
            raise ConfigurationError(
                f"unknown plan {plan!r}; choose from {PLANS}"
            )
        use_shm = self.use_shm if use_shm is None else bool(use_shm)
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

        on_result = None if journal is None else checkpoint
        use_pool = n > 0 and (workers > 1 or retry.timeout_s is not None)
        grouped = use_pool and plan != "cell"
        isolate = False
        splits: dict[tuple, int] = {}
        t_start = time.perf_counter()

        with telemetry.span(
            "runner.sweep", n_specs=n, workers=workers, pooled=use_pool,
            plan="grouped" if grouped else ("cell" if use_pool else "serial"),
        ):
            # filled by _batch_payload as each group is first submitted
            handles = {} if grouped and use_shm else None
            while pending:
                if grouped:
                    failed, broke = self._grouped_round(
                        specs, results, metas, sorted(pending), pending,
                        workers, retry, splits, handles, isolate,
                        on_result=on_result,
                    )
                    isolate = broke
                elif use_pool:
                    failed, broke = self._pooled_round(
                        specs, results, metas, sorted(pending), pending,
                        workers, retry, isolate, on_result=on_result,
                    )
                    isolate = broke
                else:
                    failed = self._serial_round(
                        specs, results, metas, sorted(pending), pending,
                        on_result=on_result,
                    )
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

    def _serial_round(
        self, specs, results, metas, order, pending, on_result=None,
    ):
        """One in-process attempt at every pending spec."""
        failed: dict[int, Exception] = {}
        for i in order:
            try:
                results[i], metas[i] = self._run_one(specs[i])
                pending.discard(i)
                if on_result is not None:
                    on_result(i)
            except Exception as exc:
                failed[i] = exc
        return failed

    def _pooled_round(
        self, specs, results, metas, order, pending, workers, retry, isolate,
        on_result=None,
    ):
        """One process-pool attempt at every pending spec.

        Returns ``(failed, broke)``.  When a worker dies it takes the
        whole pool with it and the uncollected tasks cannot be told
        apart from the killer — so nobody's attempt budget is charged
        (``broke=True``) and the next round runs *isolated*: one fresh
        single-task pool per spec, which attributes any further crash
        to exactly the experiment that caused it.
        """
        if isolate:
            failed: dict[int, Exception] = {}
            for i in order:
                failed.update(self._pooled_round(
                    specs, results, metas, [i], pending, 1, retry, False,
                    on_result=on_result,
                )[0])
            return failed, False

        failed = {}
        broke = False
        pool = self._ensure_pool(workers)
        futs = {i: pool.submit(_worker_run, self._payload(specs[i]))
                for i in order}
        collected: set[int] = set()
        terminate = False
        try:
            for i in order:
                try:
                    self._collect(
                        results, metas, i,
                        futs[i].result(timeout=retry.timeout_s),
                    )
                    pending.discard(i)
                    collected.add(i)
                    if on_result is not None:
                        on_result(i)
                except BrokenProcessPool:
                    broke = True
                    telemetry.count("runner.worker_deaths")
                    telemetry.event(
                        "runner.pool_broken", label=specs[i].label,
                        n_pending=len([j for j in order if j in pending]),
                    )
                    break
                except FuturesTimeoutError:
                    failed[i] = ExperimentTimeoutError(
                        f"{specs[i].label} exceeded the "
                        f"{retry.timeout_s:g}s per-experiment timeout"
                    )
                    collected.add(i)
                    terminate = True
                    break
                except Exception as exc:
                    failed[i] = exc
                    collected.add(i)
        finally:
            # salvage results that finished before the round broke
            for i in order:
                if i in collected or not futs[i].done():
                    continue
                try:
                    self._collect(results, metas, i, futs[i].result(timeout=0))
                    pending.discard(i)
                    if on_result is not None:
                        on_result(i)
                except Exception:
                    pass
            if broke or terminate:
                self._discard_pool(kill=True)

        if broke and len([i for i in order if i in pending]) == 1:
            # a single suspect needs no isolation round to be convicted
            culprit = next(i for i in order if i in pending)
            failed[culprit] = FaultError(
                f"worker process died while running {specs[culprit].label}"
            )
            broke = False
        return failed, broke

    # -- grouped dispatch --------------------------------------------------------

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
        handle = None
        if handles is not None:
            if key[0] not in handles:
                try:
                    handles[key[0]] = self._publish_trace(
                        specs[members[0]].workload
                    )
                except Exception:  # shm unavailable: workers materialise
                    handles[key[0]] = None
                    telemetry.count("runner.shm", op="publish_failed")
            handle = handles[key[0]]
        root = None if self.cache is None else str(self.cache.root)
        return (
            tuple(specs[i] for i in members), handle, self.client_config,
            root, self.system_factory, self.chaos,
            telemetry.worker_config(),
        )

    def _collect_batch(
        self, specs, results, metas, pending, batch, reply, failed,
        on_result=None,
    ) -> None:
        """Unpack one batch worker's per-spec replies.

        The reply is ``(entries, snapshot)``: the batch-level telemetry
        snapshot is absorbed once, then each entry either stores a
        ``(result, meta)`` or records the spec's exception in *failed* —
        per-spec attribution survives batching because workers report
        per spec, not per batch.
        """
        _, members = batch
        entries, snapshot = reply
        if snapshot is not None:
            telemetry.absorb(snapshot)
        for local, ok, payload in entries:
            i = members[local]
            if ok:
                results[i], metas[i] = payload
                pending.discard(i)
                if on_result is not None:
                    on_result(i)
            else:
                failed[i] = payload

    def _grouped_round(
        self, specs, results, metas, order, pending, workers, retry,
        splits, handles, isolate, on_result=None,
    ):
        """One grouped-batch attempt at every pending spec.

        Returns ``(failed, broke)`` like :meth:`_pooled_round`.  Worker
        replies are per spec, so in-band failures (raised exceptions,
        injected faults) are attributed exactly.  Out-of-band failures —
        pool death, a batch blowing its time budget — cannot name a
        culprit inside a multi-spec batch, so the batch's group is
        *split* (see :meth:`_plan_batches`) and retried uncharged at
        finer granularity; a singleton batch's failure is charged
        directly.  Only when every suspect batch is already a singleton
        does the round report ``broke=True`` and escalate to isolation.
        """
        if isolate:
            failed: dict[int, Exception] = {}
            for i in order:
                failed.update(self._grouped_isolated(
                    specs, results, metas, i, pending, retry, handles,
                    on_result=on_result,
                ))
            return failed, False

        failed = {}
        broke = False
        batches = self._plan_batches(specs, order, splits, workers)
        pool = self._ensure_pool(workers)
        futs = {}
        try:
            for b, batch in enumerate(batches):
                futs[b] = pool.submit(
                    _worker_run_batch,
                    self._batch_payload(specs, batch, handles),
                )
        except BrokenProcessPool as exc:
            # a worker died while later groups were still being published:
            # the unsubmitted batches are lost like the in-flight ones
            lost = Future()
            lost.set_exception(exc)
            for b in range(len(futs), len(batches)):
                futs[b] = lost
        collected: set[int] = set()
        terminate = False
        try:
            for b, batch in enumerate(batches):
                key, members = batch
                budget = (
                    None if retry.timeout_s is None
                    else retry.timeout_s * len(members)
                )
                try:
                    self._collect_batch(
                        specs, results, metas, pending, batch,
                        futs[b].result(timeout=budget), failed,
                        on_result=on_result,
                    )
                    collected.add(b)
                except BrokenProcessPool:
                    broke = True
                    telemetry.count("runner.worker_deaths")
                    telemetry.event(
                        "runner.pool_broken", label=specs[members[0]].label,
                        n_pending=len([j for j in order if j in pending]),
                    )
                    break
                except FuturesTimeoutError:
                    collected.add(b)
                    terminate = True
                    if len(members) == 1:
                        i = members[0]
                        failed[i] = ExperimentTimeoutError(
                            f"{specs[i].label} exceeded the "
                            f"{retry.timeout_s:g}s per-experiment timeout"
                        )
                    else:  # can't name the slow spec: retry finer, uncharged
                        self._split_group(specs, batch, splits)
                    break
                except Exception as exc:
                    collected.add(b)
                    if len(members) == 1:
                        failed[members[0]] = exc
                    else:
                        self._split_group(specs, batch, splits)
        finally:
            # salvage batches that finished before the round broke
            for b, batch in enumerate(batches):
                if b in collected or not futs[b].done():
                    continue
                try:
                    self._collect_batch(
                        specs, results, metas, pending, batch,
                        futs[b].result(timeout=0), failed,
                        on_result=on_result,
                    )
                except Exception:
                    pass
            if broke or terminate:
                self._discard_pool(kill=True)

        if broke:
            still = [i for i in order if i in pending and i not in failed]
            if len(still) == 1:
                # a single suspect needs no isolation round to be convicted
                failed[still[0]] = FaultError(
                    f"worker process died while running {specs[still[0]].label}"
                )
                broke = False
            else:
                split_any = False
                for b, batch in enumerate(batches):
                    if b in collected or len(batch[1]) == 1:
                        continue
                    if any(i in still for i in batch[1]):
                        self._split_group(specs, batch, splits)
                        split_any = True
                if split_any:
                    broke = False  # uncharged retry at finer granularity
        return failed, broke

    def _grouped_isolated(
        self, specs, results, metas, i, pending, retry, handles,
        on_result=None,
    ):
        """One spec in a fresh single-task pool (attribution by construction)."""
        spec = specs[i]
        batch = ((workload_fingerprint(spec.workload), spec.engine), [i])
        failed: dict[int, Exception] = {}
        pool = ProcessPoolExecutor(max_workers=1)
        fut = pool.submit(
            _worker_run_batch, self._batch_payload(specs, batch, handles)
        )
        kill = False
        try:
            self._collect_batch(
                specs, results, metas, pending, batch,
                fut.result(timeout=retry.timeout_s), failed,
                on_result=on_result,
            )
        except BrokenProcessPool:
            telemetry.count("runner.worker_deaths")
            failed[i] = FaultError(
                f"worker process died while running {spec.label}"
            )
        except FuturesTimeoutError:
            failed[i] = ExperimentTimeoutError(
                f"{spec.label} exceeded the "
                f"{retry.timeout_s:g}s per-experiment timeout"
            )
            kill = True
        except Exception as exc:
            failed[i] = exc
        finally:
            _shutdown_pool(pool, kill)
        return failed

    @staticmethod
    def _collect(results, metas, i, value) -> None:
        """Store one worker's ``(result, meta)``, folding in its spans.

        The worker's telemetry snapshot is absorbed into the active
        session (a no-op without one) and stripped from the meta so
        :class:`GridOutcome` never retains raw telemetry.
        """
        result, meta = value
        results[i] = result
        if meta.telemetry is not None:
            telemetry.absorb(meta.telemetry)
            meta = replace(meta, telemetry=None)
        metas[i] = meta

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


def _worker_run(payload) -> tuple[RunResult, ExperimentMeta]:
    """Process-pool entry point: rebuild a serial runner and execute.

    Chaos strikes happen here, inside the worker, so an ``exit`` strike
    kills a real worker process (exactly the failure mode
    ``BrokenProcessPool`` recovery exists for) without ever touching
    the coordinating process.

    When the coordinator runs under a telemetry session, the payload
    carries a :class:`~repro.telemetry.session.WorkerTelemetry` config;
    the worker then collects its own spans/metrics (rooted at the
    coordinator's sweep span) and ships the snapshot back inside the
    :class:`ExperimentMeta`.  Workers are reused across tasks, so the
    session is always drained before returning.
    """
    spec, client_config, cache_root, system_factory, chaos, tele = payload
    telemetry.activate_worker(tele)
    try:
        if chaos is not None:
            chaos.maybe_strike(spec.label, allow_exit=True)
        runner = ExperimentRunner(
            cache=cache_root,
            client=client_config,
            system_factory=system_factory,
            workers=None,
        )
        result, meta = runner.run_with_meta(spec)
    finally:
        snapshot = telemetry.drain_worker()
    if snapshot is not None:
        meta = replace(meta, telemetry=snapshot)
    return result, meta


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
    """Process-pool entry point for one placement batch.

    All specs in the batch share a trace (attached zero-copy from the
    shared-memory plane when a handle is present, else materialised by
    the memoized runner's ``trace_for``), an engine profile and one
    :class:`~repro.runner.caching.PlacementBatch` — the worker-side half
    of the grouped sweep plan.

    Replies are *per spec*: ``(local_index, ok, payload)`` entries where
    a failed spec carries its exception instead of poisoning the batch,
    matching serial semantics (one bad spec does not block its
    batch-mates).  Chaos strikes fire per spec inside the worker, and
    each spec runs under its own ``runner.experiment`` span rooted at
    the coordinator's sweep span — the span tree is indistinguishable
    from per-cell dispatch.
    """
    specs, handle, client_config, cache_root, system_factory, chaos, tele = (
        payload
    )
    telemetry.activate_worker(tele)
    entries: list[tuple[int, bool, object]] = []
    try:
        runner = _worker_runner(client_config, cache_root, system_factory)
        trace = None
        if handle is not None:
            try:
                trace = attach_trace(handle)
                runner._client.prime_trace_digest(trace, handle.digest)
            except Exception:  # segment gone: degrade, never fail
                trace = None
                telemetry.count("runner.shm", op="fallback")
        if trace is None:
            trace = runner.trace_for(specs[0].workload)
        profile = profile_for(specs[0].engine)
        system = runner.system_factory()
        batch = PlacementBatch(
            runner._client, trace, profile, system,
            path_label="grouped_batch",
        )
        for local, spec in enumerate(specs):
            start = time.perf_counter()
            try:
                if chaos is not None:
                    chaos.maybe_strike(spec.label, allow_exit=True)
                with telemetry.span(
                    "runner.experiment", label=spec.label,
                ) as sp:
                    mask = runner.placement_mask(spec, trace)
                    result, provenance = batch.run_cached(mask)
                    sp.set("provenance", provenance)
                meta = ExperimentMeta(
                    label=spec.label,
                    duration_s=time.perf_counter() - start,
                    provenance=provenance,
                )
                entries.append((local, True, (result, meta)))
            except Exception as exc:
                entries.append((local, False, exc))
    finally:
        snapshot = telemetry.drain_worker()
    return entries, snapshot
