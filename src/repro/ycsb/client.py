"""The YCSB-style client.

Executes a trace against a :class:`~repro.kvstore.server.HybridDeployment`
in a closed loop (one outstanding request, like the paper's single client
co-located with the servers) and measures what the paper measures:
total runtime, throughput, average read/write response time, and tail
latency percentiles.  The mean over ``repeats`` noise realisations is
reported, matching "reported values are the mean of multiple experiment
runs" (Fig 5 caption).

Every measurement — one deployment or many placements — runs through
:class:`~repro.memsim.kernel.BatchKernel`: the cost law is tabled once
over the key space, a placement is one select from those tables, and
its noise is the per-request law in closed form (two normal draws per
repeat).  The optional LLC model (off by default — with 100 KB records
against a 12 MB LLC its effect is second-order, see the cache ablation
bench) computes a trace's hit mask in one vectorized pass over the LRU
eviction frontier (:func:`~repro.memsim.cache.lru_hit_mask`, exact) and
is memoized per (trace, capacity), so repeated measurements never
replay the LRU.

Noise seeding is *content-addressed*: every measurement derives its
noise streams from the experiment fingerprint (trace, deployment,
client settings — see :mod:`repro.runner.fingerprint`), so the same
experiment measures identically regardless of call order, process, or
parallel schedule, while distinct deployments still see independent
noise realisations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.errors import ConfigurationError
from repro.kvstore.server import HybridDeployment
from repro.memsim.cache import LLCModel, lru_hit_mask
from repro.memsim.timing import NoiseModel
from repro.rng import SeedLike, check_seed, derive_seed, ensure_rng
from repro.units import NS_PER_S
from repro.ycsb.workload import Trace

#: Default latency percentiles reported (Fig 8d/8e use the tails).
DEFAULT_PERCENTILES = (50.0, 95.0, 99.0)


@dataclass(frozen=True)
class RunResult:
    """Measurements from executing one trace on one deployment.

    All times are nanoseconds; throughput is operations per second.
    Averages are over the ``repeats`` noise realisations.
    """

    workload: str
    engine: str
    n_requests: int
    n_reads: int
    n_writes: int
    runtime_ns: float
    avg_read_ns: float
    avg_write_ns: float
    latency_percentiles_ns: dict[float, float] = field(default_factory=dict)
    repeats: int = 1
    runtime_std_ns: float = 0.0
    concurrency: int = 1

    @property
    def throughput_ops_s(self) -> float:
        """Operations per second."""
        return self.n_requests / (self.runtime_ns / NS_PER_S)

    @property
    def avg_latency_ns(self) -> float:
        """Average per-request latency (runtime / requests)."""
        return self.runtime_ns / self.n_requests

    @property
    def read_runtime_contrib_ns(self) -> float:
        """One read's contribution to wall-clock runtime.

        With ``concurrency`` requests in flight, a request's response
        time overlaps with its peers', so its runtime contribution is
        the response time divided by the concurrency.  This is the
        quantity the Estimate Engine's telescoping needs.
        """
        return self.avg_read_ns / self.concurrency

    @property
    def write_runtime_contrib_ns(self) -> float:
        """One write's contribution to wall-clock runtime."""
        return self.avg_write_ns / self.concurrency

    def percentile(self, q: float) -> float:
        """A recorded latency percentile (e.g. 95.0, 99.0)."""
        try:
            return self.latency_percentiles_ns[q]
        except KeyError:
            raise ConfigurationError(
                f"percentile {q} was not recorded; have "
                f"{sorted(self.latency_percentiles_ns)}"
            ) from None


class YCSBClient:
    """Closed-loop benchmark client over a hybrid deployment.

    Parameters
    ----------
    repeats:
        Number of noise realisations averaged per measurement.
    noise_sigma:
        Relative per-request noise (0 disables noise entirely).
    use_llc:
        Route the trace through the deployment's LLC model (exact LRU,
        one frontier pass per trace) before timing.  Off by default; see
        module docstring.
    percentiles:
        Latency percentiles to record.
    seed:
        Base seed for the noise streams.
    concurrency:
        Concurrent client threads (closed loop each).  Requests overlap,
        so wall-clock runtime is the summed service time divided by the
        concurrency, while bandwidth sharing inflates each request's
        memory term by :attr:`pass_scale`.  The paper notes that
        "server thread parallelism ... [is] incorporated into
        the average request response time" the Sensitivity Engine
        extracts — measuring baselines at the deployment's concurrency
        keeps the analytic model exact (see the concurrency ablation).
    contention:
        Per-extra-thread relative bandwidth penalty.
    faults:
        Optional :class:`~repro.faults.FaultSpec` injected into every
        measurement.  Fault schedules derive from the experiment
        fingerprint (which covers the spec itself), so faulty runs are
        exactly as reproducible and cacheable as clean ones; the
        timeline is shared across repeats — device behaviour, unlike
        measurement noise, does not re-roll per repeat.
    cache:
        Optional result store (a :class:`~repro.store.SQLiteStore` or
        the path of its file).  A measurement is then recalled, bit for
        bit, under its experiment fingerprint (which the store is not
        part of) before it is made, and stored after; ``cache_hits`` /
        ``cache_misses`` count the probes.  Live-generator seeds bypass it.
    """

    def __init__(
        self,
        repeats: int = 3,
        noise_sigma: float = 0.01,
        use_llc: bool = False,
        percentiles: tuple[float, ...] = DEFAULT_PERCENTILES,
        seed: SeedLike = None,
        concurrency: int = 1,
        contention: float = 0.15,
        faults=None,
        cache=None,
    ):
        if repeats <= 0:
            raise ConfigurationError(f"repeats must be positive, got {repeats}")
        check_seed(seed)
        if concurrency <= 0:
            raise ConfigurationError(
                f"concurrency must be positive, got {concurrency}"
            )
        if contention < 0:
            raise ConfigurationError(
                f"contention must be >= 0, got {contention}"
            )
        percentiles = tuple(percentiles)
        for q in percentiles:
            # `not (0 <= q <= 100)` is also true for NaN
            if not 0.0 <= q <= 100.0:
                raise ConfigurationError(
                    f"percentiles must lie in [0, 100], got {q}"
                )
        self.concurrency = concurrency
        self.contention = contention
        self.repeats = repeats
        self.noise = NoiseModel(sigma=noise_sigma)
        self.use_llc = use_llc
        self.percentiles = percentiles
        self._seed = seed
        self.faults = faults
        if cache is not None:
            from repro.runner.cache import ensure_cache

            cache = ensure_cache(cache)
        self.cache = cache
        self.cache_hits = 0
        self.cache_misses = 0
        # hit masks are a pure function of (trace, LLC capacity); memoize
        # them so repeated measurements never replay the LRU
        self._hitmask_memo: dict[tuple[str, int], np.ndarray] = {}

    @property
    def seed(self) -> SeedLike:
        """The base seed for the noise streams (as passed to ``__init__``)."""
        return self._seed

    @property
    def pass_scale(self) -> float:
        """``1 + contention * (concurrency - 1)``: the factor bandwidth
        sharing puts on every request's memory passes (exactly 1 for a
        single thread)."""
        return 1 + self.contention * (self.concurrency - 1)

    # -- internals ---------------------------------------------------------------

    def _fault_arrays(self, label, on_fast, latency, bpns, cpu):
        """Apply the configured fault timeline to per-request arrays.

        Returns the (possibly perturbed) latency / bandwidth / cpu
        arrays plus the per-request noise-sigma scale (or None).  The
        timeline derives from *label* — the experiment fingerprint —
        so it is identical for serial, parallel and repeated runs.
        """
        if self.faults is None or not self.faults.active:
            return latency, bpns, cpu, None
        telemetry.count("faults.activations")
        tl = self.faults.timeline(on_fast.size, label)
        if tl.slow_latency_mult is not None:
            latency = latency * np.where(on_fast, 1.0, tl.slow_latency_mult)
        if tl.slow_bandwidth_mult is not None:
            bpns = bpns * np.where(on_fast, 1.0, tl.slow_bandwidth_mult)
        if tl.stall_ns is not None:
            offline = on_fast if tl.stall_node == "fast" else ~on_fast
            cpu = cpu + np.where(offline, tl.stall_ns, 0.0)
        return latency, bpns, cpu, tl.noise_scale

    def _cache_mask(
        self, trace: Trace, llc: LLCModel, trace_digest: str | None,
    ):
        """Boolean per-request hit mask from the LLC model (or None).

        The mask is a cold-cache pass (:func:`lru_hit_mask`) at the
        passed LLC's capacity: measuring never changes the system's
        cache.  It is a pure function of (trace digest, LLC capacity),
        so it is looked up in the in-memory memo, then in the store
        when there is one, and only then computed (and stored): only
        the first measurement of a trace pays for it.
        """
        if not self.use_llc:
            return None, 0.0
        hits = key = fp = None
        if trace_digest is not None:
            key = (trace_digest, llc.capacity_bytes)
            hits = self._hitmask_memo.get(key)
            if hits is not None:
                return hits, llc.hit_latency_ns
            if self.cache is not None:
                from repro.runner.caching import hitmask_fingerprint

                fp = hitmask_fingerprint(trace_digest, llc.capacity_bytes)
                hits = self.cache.get_hitmask(fp)
        if hits is None:
            keys, capacity = trace.keys, llc.capacity_bytes
            sizes = trace.record_sizes[keys]
            # the pass sums bytes in float64: beyond 2**53, the replay
            hits = (lru_hit_mask(keys, sizes, capacity)[0]
                    if keys.size * capacity < 2**53
                    else LLCModel(capacity).process(keys, sizes))
            if fp is not None:
                self.cache.put_hitmask(fp, hits)
        hits.flags.writeable = False
        if key is not None:
            self._hitmask_memo[key] = hits
        return hits, llc.hit_latency_ns

    def experiment_fingerprint(
        self, trace: Trace, deployment: HybridDeployment,
    ) -> tuple[str, str]:
        """(trace digest, experiment fingerprint) for one measurement.

        The experiment fingerprint covers everything that determines the
        measured numbers — trace content, engine profile, placement,
        memory-system parameters and this client's settings — and is both
        the content-addressed cache key and the root label of the noise
        streams.  Raises for clients seeded with a live generator, which
        are inherently non-reproducible.
        """
        from repro.runner.fingerprint import experiment_fingerprint

        return trace.digest, experiment_fingerprint(
            trace.digest, deployment, self
        )

    # -- execution --------------------------------------------------------------------

    def sample_service_times(
        self, trace: Trace, deployment: HybridDeployment,
    ) -> np.ndarray:
        """One noisy per-request service-time realisation (ns).

        Used by open-loop consumers (e.g. the queueing tail simulator)
        that need the raw service process rather than aggregated
        closed-loop measurements.
        """
        from repro.memsim.kernel import BatchKernel

        record_sizes, fast_mask = deployment.placement_arrays()
        kernel = BatchKernel(
            self, trace, deployment.profile, deployment.system,
            record_sizes=record_sizes,
        )
        label, base, noise_scale = kernel.base_times(fast_mask)
        rng = ensure_rng(derive_seed(self._seed, f"{label}/svc"))
        return self.noise.apply(base, rng, scale=noise_scale)

    def execute(self, trace: Trace, deployment: HybridDeployment) -> RunResult:
        """Run *trace* against *deployment*; return averaged measurements.

        A deployment is one placement: its mask, engine profile and
        memory system go through :meth:`execute_placements`.
        """
        record_sizes, fast_mask = deployment.placement_arrays()
        (result,) = self.execute_placements(
            trace, [fast_mask], deployment.profile, deployment.system,
            record_sizes=record_sizes,
        )
        return result

    def execute_placements(
        self,
        trace: Trace,
        placements,
        profile,
        system,
        record_sizes: np.ndarray | None = None,
    ) -> list[RunResult]:
        """Measure *trace* against many placements in one batch.

        Each placement's noise streams derive from its own experiment
        fingerprint, so a placement measures the same numbers alone or
        in any batch; the trace-dependent work (service-time tables,
        request counts, trace hashing, the LLC replay) happens once, and
        no deployments are constructed at all.  See
        :class:`~repro.memsim.kernel.BatchKernel`.  With a store, every
        placement is probed first and the kernel is only built if one
        misses (:class:`~repro.runner.caching.PlacementBatch`).

        Parameters
        ----------
        trace:
            The request trace shared by every placement.
        placements:
            Placements over the key space — a (placements x n_keys)
            array or any sequence — each a boolean FastMem mask or one
            tier per key (:func:`~repro.memsim.kernel.check_placement`).
        profile / system:
            The engine cost profile and memory system every placement
            shares (two tiers, or more with ``system.far``).
        record_sizes:
            Dense per-key sizes (defaults to ``trace.record_sizes``).
        """
        from repro.runner.caching import PlacementBatch

        batch = PlacementBatch(
            self, trace, profile, system, record_sizes=record_sizes
        )
        return [result for result, _ in batch.run_all_cached(placements)]
