"""Multi-placement batch simulation kernel.

Every sweep, validation replay and drift drill evaluates the *same trace*
against many placements, and a placement is fully described by one
array over the key space (:func:`check_placement`) — no
:class:`~repro.kvstore.server.HybridDeployment` is needed to measure
one.

:class:`BatchKernel` is the one way a placement is measured.  The cost
law is a function of (key, op, tier), tabled **once** per memory node
(``(2, n_keys)``, row 0 writes, row 1 reads), beside the per-(key, op)
request counts, the LLC hit mask and the trace digest.  A placement is
then a key-long select, a fingerprint, and :func:`measure_repeats`: the
per-request noise law in closed form over the (service time, request
count) cells — nothing request-long, save under an active fault spec,
whose timeline is indexed by time.  Repeat ``r`` of a placement draws
from ``derive_seed(seed, f"{label}/run{r}")``, its label the experiment
fingerprint, so it measures the same alone, in any batch, in any
process.  ``tests/memsim/test_kernel.py`` keeps the per-request
:class:`~repro.memsim.timing.AccessTimer` loop as its distributional
oracle.

``accuracy="analytic"`` is the same kernel with two differences: its
LLC hit mask is the reuse-time (AET) prediction of
:mod:`repro.memsim.analytic` instead of the exact LRU pass, and it
measures at the noise mean (sigma 0).
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.errors import WorkloadError
from repro.memsim.timing import NoiseModel, service_tables, service_times_ns
from repro.rng import derive_seed, ensure_rng


#: The dtype of an integer placement: one tier index per key.
TIER_DTYPE = np.uint8


def check_placement(placement, n_keys: int, n_tiers: int) -> np.ndarray:
    """*placement* in its canonical form, or a ``WorkloadError``.

    A placement is a bool FastMem mask or one :data:`TIER_DTYPE` tier
    per key (0 = FastMem), of shape ``(n_keys,)``.  Its canonical form,
    which the fingerprint hashes, is the mask on two tiers (``tier ==
    0``) and tiers on more (a mask's other keys on SlowMem): one
    placement, one fingerprint, however it is spelled.
    """
    p = np.asarray(placement)
    if p.shape == (n_keys,) and p.dtype == np.bool_:
        return p if n_tiers == 2 else (~p).view(TIER_DTYPE)
    if p.shape == (n_keys,) and p.dtype == TIER_DTYPE and (
        p.size == 0 or p.max() < n_tiers
    ):
        return p == 0 if n_tiers == 2 else p
    raise WorkloadError(
        f"placement must be a bool mask or {np.dtype(TIER_DTYPE)} tiers in "
        f"[0, {n_tiers}) of shape ({n_keys},), got {p.dtype} {p.shape}"
    )


def placement_fingerprint(
    trace_digest: str, profile, placement, n_keys: int, system, client,
) -> str:
    """The experiment fingerprint of one placement of an *n_keys* trace:
    its canonical form (:func:`check_placement`), hashed."""
    from repro.runner.fingerprint import experiment_fingerprint_parts

    placement = check_placement(placement, n_keys, len(system.nodes))
    return experiment_fingerprint_parts(
        trace_digest, profile, placement, system, client,
    )


def _by_tier(masks, per_tier):
    """``per_tier[k]`` where ``masks[k]`` holds, else the slowest tier's."""
    out = per_tier[-1]
    for mask, value in zip(masks[::-1], per_tier[-2::-1]):
        out = np.where(mask, value, out)
    return out


#: Cells go in bins 1/20 of the least sigma wide in log value; a solve
#: reads the bins within 6 of their own sigmas of its start (Phi(6) =
#: 1 - 1e-9) and stops on a Newton step under 1e-6 of x (the next is of
#: its square) or after 60 steps.
_WINDOW_SIGMAS = 6.0
_BINS_PER_SIGMA = 20
_SOLVE_TOLERANCE = 1e-6
_SOLVE_STEPS = 60


def _solve_count(noise, values, weights, scales, below, target, x):
    """The x where ``below + sum(weights P(values F <= x))`` is *target*:
    Newton from *x*, bisecting when a step leaves the bracket
    ``[0, max(values) (1 + 10 sigma)]``, whose ends straddle the root."""
    lo = 0.0
    hi = float(values.max() * (1.0 + 10.0 * noise.sigma * scales.max()))
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    for _ in range(_SOLVE_STEPS):
        cdf, pdf = noise.cdf(x, values, scales)
        excess = below + weights @ cdf - target
        lo, hi = (x, hi) if excess < 0.0 else (lo, x)
        slope = weights @ pdf
        step = x - excess / slope if slope > 0.0 else lo
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if abs(step - x) <= _SOLVE_TOLERANCE * x:
            return float(step)
        x = step
    return float(x)


def _weighted_sample(values: np.ndarray, weights: np.ndarray):
    """``(index, values, cumulative weights)`` of the cells of positive
    weight, by value (ties are equal values: their order is moot)."""
    index = np.flatnonzero(weights > 0)
    index = index[np.argsort(values[index])]
    return index, values[index], np.cumsum(weights[index])


def _weighted_percentiles(
    values: np.ndarray, weights: np.ndarray, qs: tuple[float, ...],
    sample=None,
) -> dict[float, float]:
    """np.percentile-style linear-interpolated quantiles of a weighted sample.

    ``weights`` are multiplicities; the quantile is taken over the
    implied expanded sample, matching what ``np.percentile`` computes
    on the materialised per-request times.
    *sample* is ``_weighted_sample(values, weights)``, if already made.
    """
    _, v, cum = _weighted_sample(values, weights) if sample is None else sample
    total = cum[-1]
    out: dict[float, float] = {}
    for q in qs:
        pos = q / 100.0 * (total - 1.0)
        pos = min(max(pos, 0.0), total - 1.0)
        j0, j1 = np.floor(pos), np.ceil(pos)
        frac = pos - j0
        v0 = v[min(np.searchsorted(cum, j0, side="right"), v.size - 1)]
        v1 = v[min(np.searchsorted(cum, j1, side="right"), v.size - 1)]
        out[q] = float(v0 + frac * (v1 - v0))
    return out


def mixture_percentiles(noise, values, weights, percentiles, scales=None):
    """Percentiles of the requests, *weights* per cell of *values*, each
    times an i.i.d. *noise* factor (sigma times ``kinds[kind[i]]`` if
    *scales* is ``(kinds, kind)``).

    ``np.percentile`` reads order statistic ``h = (n - 1) q / 100``; it
    sits where the expected count at or below x is ``h + 1/2``, solved
    from the noise-free quantile over the cells binned by value.  A
    percentile in a gap between cells wider than the noise keeps that
    noise-free value.
    """
    sample = _weighted_sample(values, weights)
    start = _weighted_percentiles(values, weights, percentiles, sample)
    if noise.sigma == 0.0 or not percentiles:
        return start
    index, ordered, cum = sample
    kinds, kind = scales or (np.ones(1), None)
    # one bin per (log-value step, scale kind), at its weighted mean
    step = np.floor(np.log(ordered / ordered[0]) * (
        _BINS_PER_SIGMA / (noise.sigma * kinds[0])
    )).astype(np.int64) * kinds.size
    slot = step if kind is None else step + kind[index]
    w = weights[index]
    bin_w = np.bincount(slot, w)
    full = np.flatnonzero(bin_w)
    bin_w = bin_w[full]
    bin_v = np.bincount(slot, w * ordered)[full] / bin_w
    bin_s = kinds[full % kinds.size]
    for q, x0 in start.items():
        target = q / 100.0 * (cum[-1] - 1.0) + 0.5
        # each bin's distance from x0 in its own noise sigmas
        dist = np.log(bin_v / x0) / (noise.sigma * bin_s)
        near = np.abs(dist) <= _WINDOW_SIGMAS
        below = float(bin_w[dist < -_WINDOW_SIGMAS].sum())
        if below < target <= below + float(bin_w[near].sum()):
            start[q] = _solve_count(noise, bin_v[near], bin_w[near],
                                    bin_s[near], below, target, x0)
    return start


def measure_repeats(client, trace, engine, times, counts, label, scale=None,
                    noise=None):
    """*client*'s noise repeats over cells of ``counts`` requests of
    noise-free time ``times`` (``(2, cells)``: writes, reads), rooted in
    *label*, sigma widened per cell by *scale* (jitter faults), under
    *noise* (default ``client.noise``).

    The noise is i.i.d. per request, so an op's total is normal with
    mean ``S = sum(count t m)`` and variance ``Q = sum(count t^2 v)``,
    ``(m, v)`` the factor's moments: repeat ``r`` draws two normals from
    ``derive_seed(seed, f"{label}/run{r}")``, reads ``S_r + sqrt(Q_r)
    z[0]``, writes ``S_w + sqrt(Q_w) z[1]``; at sigma 0 there is
    nothing to draw and one noise-free total stands for every repeat.
    Percentiles are the noise mixture's (:func:`mixture_percentiles`).
    """
    from repro.ycsb.client import RunResult  # lazy: import cycle

    noise = client.noise if noise is None else noise
    scales = None
    if noise.sigma == 0.0:
        mean, var = 1.0, 0.0
    elif scale is None:
        mean, var = noise.moments()
    else:
        kinds = np.unique(scale)
        kind = np.searchsorted(kinds, scale)
        mean, var = (m[kind] for m in noise.moments(kinds))
        scales = kinds, np.broadcast_to(kind, times.shape).ravel()
    weighted = counts * times
    sums = (weighted * mean).sum(axis=1)
    spread = np.sqrt((weighted * times * var).sum(axis=1))
    z = np.zeros((1, 2)) if noise.sigma == 0.0 else np.array([
        ensure_rng(derive_seed(client.seed, f"{label}/run{r}"))
        .standard_normal(2)[::-1] for r in range(client.repeats)
    ])
    write_sums, read_sums = (sums + spread * z).T
    runtimes = (read_sums + write_sums) / client.concurrency
    n_writes, n_reads = (int(n) for n in counts.sum(axis=1))
    pct = mixture_percentiles(
        noise, times.ravel(), counts.ravel(), client.percentiles, scales,
    )
    return RunResult(
        workload=trace.name,
        engine=engine,
        n_requests=trace.n_requests,
        n_reads=n_reads,
        n_writes=n_writes,
        runtime_ns=float(runtimes.mean()),
        avg_read_ns=float(read_sums.mean() / n_reads) if n_reads else 0.0,
        avg_write_ns=float(write_sums.mean() / n_writes) if n_writes else 0.0,
        latency_percentiles_ns=pct,
        repeats=client.repeats,
        runtime_std_ns=float(runtimes.std()),
        concurrency=client.concurrency,
    )


class BatchKernel:
    """Evaluates many placements of one trace on the key axis.

    Parameters
    ----------
    client:
        The measuring :class:`~repro.ycsb.client.YCSBClient` whose
        settings (repeats, noise, seed, concurrency, contention, LLC,
        faults) define the measurement.
    trace:
        The request trace shared by every placement.
    profile:
        The engine's :class:`~repro.kvstore.profiles.EngineProfile`.
    system:
        The :class:`~repro.memsim.system.HybridMemorySystem` hosting
        every placement (placements share node parameters; only the
        placement varies).
    record_sizes:
        Dense per-key sizes defining the key space (defaults to
        ``trace.record_sizes``, which is what every deployment built
        from the trace uses).
    analytic:
        Predict instead of measure: the LLC hit mask is the reuse-time
        model's (:func:`~repro.memsim.analytic.reuse_time_hit_mask`,
        never memoized or stored) and the noise is taken at its mean,
        so a result carries ``runtime_std_ns == 0``.  Fingerprints and
        fault timelines stay the measured placement's.
    """

    def __init__(self, client, trace, profile, system, record_sizes=None,
                 analytic=False):
        record_sizes = np.asarray(
            trace.record_sizes if record_sizes is None else record_sizes,
            dtype=np.int64,
        )
        if trace.n_keys != record_sizes.size:
            raise WorkloadError(
                f"trace key space ({trace.n_keys}) does not match the "
                f"placement key space ({record_sizes.size})"
            )
        if trace.n_requests == 0:
            raise WorkloadError(
                f"trace {trace.name!r} has no requests: nothing to measure"
            )
        self.client = client
        self.trace = trace
        self.profile = profile
        self.system = system
        self.record_sizes = record_sizes
        # the cost law over the key space, once: per node a (2, n_keys)
        # table (row 0 writes, row 1 reads) a placement selects from
        nodes = system.nodes
        self.tables = service_tables(
            profile, record_sizes, [n.latency_ns for n in nodes],
            [n.bytes_per_ns for n in nodes], client.pass_scale,
        )
        self._live_seed = isinstance(client.seed, np.random.Generator)
        self.trace_digest = (
            None if self._live_seed else client.trace_digest(trace)
        )
        self._path = "analytic" if analytic else "batch_kernel"
        self._noise = NoiseModel(sigma=0.0) if analytic else client.noise
        # the LLC hit mask is placement-independent; one mask serves
        # every placement (the client memoizes the exact one across
        # kernels)
        if analytic and client.use_llc:
            from repro.memsim.analytic import reuse_time_hit_mask

            llc = system.llc
            self._cached = reuse_time_hit_mask(
                trace.keys, trace.request_sizes, llc.capacity_bytes
            )
            self._cache_lat = llc.hit_latency_ns
        else:
            self._cached, self._cache_lat = client._cache_mask(
                trace, system.llc, self.trace_digest
            )
        # a placement's cells: under an active fault, the requests (its
        # timeline is indexed by time, not by key), each one request of
        # its op; else the (op, key) table entries weighted by their
        # request counts — LLC misses only, plus one LLC-hit cell per op
        faults = client.faults
        self._faulty = faults is not None and faults.active
        self._hit_times = None
        if self._faulty:
            is_read = trace.is_read
            self._request_operands = (
                record_sizes[trace.keys] + profile.metadata_bytes,
                np.where(is_read, profile.read_passes, profile.write_passes)
                * client.pass_scale,
                np.where(is_read, profile.read_cpu_ns, profile.write_cpu_ns),
            )
            self._counts = np.stack((~is_read, is_read))
        elif self._cached is None:
            reads, writes = trace.per_key_counts()
            self._counts = np.stack((writes, reads))
        else:
            reads, writes = trace.per_key_counts(where=~self._cached)
            hits = [[trace.n_writes - writes.sum()],
                    [trace.n_reads - reads.sum()]]
            self._counts = np.hstack((np.stack((writes, reads)), hits))
            self._hit_times = self._cache_lat + np.array(
                [[profile.write_cpu_ns], [profile.read_cpu_ns]]
            )

    def fingerprint(self, placement: np.ndarray) -> str | None:
        """The experiment fingerprint of one placement (None if unseeded).

        Identical to ``client.experiment_fingerprint(trace, deployment)``
        for a deployment carrying *placement* — computed without building
        the deployment.
        """
        if self._live_seed:
            return None
        return placement_fingerprint(
            self.trace_digest, self.profile, placement,
            self.record_sizes.size, self.system, self.client,
        )

    def _cells(self, placement, fingerprint):
        """``(noise label, noise-free times, sigma scale)`` of the
        kernel's cells (``_counts`` requests each) under *placement*."""
        n_tiers = len(self.tables)
        placement = check_placement(placement, self.record_sizes.size, n_tiers)
        if self._live_seed:
            # live-generator clients are not fingerprintable; every
            # derive_seed call draws from the generator, so a static
            # label still yields fresh independent streams
            label = self.trace.name
        else:
            label = fingerprint or self.fingerprint(placement)
        # the keys each tier but the slowest holds
        masks = ([placement] if n_tiers == 2
                 else [placement == k for k in range(n_tiers - 1)])
        if not self._faulty:
            times = _by_tier(masks, self.tables)
            if self._hit_times is not None:
                times = np.concatenate((times, self._hit_times), axis=1)
            return label, times, None
        # a fault timeline is indexed by time, not by key: the one
        # request-length evaluation of the same law; its slow-node
        # multipliers apply to every tier below FastMem
        masks = [mask[self.trace.keys] for mask in masks]
        nodes = self.system.nodes
        latency = _by_tier(masks, [n.latency_ns for n in nodes])
        bpns = _by_tier(masks, [n.bytes_per_ns for n in nodes])
        sizes, passes, cpu = self._request_operands
        latency, bpns, cpu, noise_scale = self.client._fault_arrays(
            label, masks[0], latency, bpns, cpu
        )
        base = service_times_ns(
            sizes, latency, bpns, passes, cpu,
            cached=self._cached, cache_latency_ns=self._cache_lat,
        )
        return label, np.broadcast_to(base, self._counts.shape), noise_scale

    def base_times(self, placement: np.ndarray, fingerprint: str | None = None):
        """``(label, base_ns, noise_scale)``: a placement's noise-free
        times in request order, for open-loop consumers that draw noise
        per request (:meth:`~repro.ycsb.client.YCSBClient.sample_service_times`).
        """
        label, times, scale = self._cells(placement, fingerprint)
        if self._faulty:
            return label, times[0], scale
        trace = self.trace
        # each request's cell: its (op, key), or its op's LLC-hit cell
        key = trace.keys if self._cached is None else np.where(
            self._cached, trace.n_keys, trace.keys
        )
        cell = key + trace.is_read * times.shape[1]
        return label, times.ravel().take(cell), None

    def run(self, placement: np.ndarray, fingerprint: str | None = None):
        """Measure one placement; returns a ``RunResult``.

        ``fingerprint`` may be passed when the caller already computed it
        (e.g. for a cache probe) to avoid hashing the placement twice.
        """
        telemetry.count("memsim.path", path=self._path)
        label, times, scale = self._cells(placement, fingerprint)
        return measure_repeats(
            self.client, self.trace, self.profile.name, times, self._counts,
            label, scale, self._noise,
        )

    def run_all(self, placements, fingerprints=None) -> list:
        """Measure every placement in *placements* (rows or a sequence),
        in order; ``fingerprints``, if given, holds each one's
        precomputed fingerprint (see :meth:`run`)."""
        masks = list(placements)
        fps = [None] * len(masks) if fingerprints is None else list(fingerprints)
        if len(fps) != len(masks):
            raise WorkloadError(
                f"{len(masks)} placements but {len(fps)} fingerprints"
            )
        return [self.run(mask, fp) for mask, fp in zip(masks, fps)]
