"""Multi-placement batch simulation kernel.

Every sweep, validation replay and drift drill evaluates the *same trace*
against many placements, and a placement is fully described by one
array over the key space (:func:`check_placement`) — no
:class:`~repro.kvstore.server.HybridDeployment` is needed to measure
one.

:class:`BatchKernel` is the one way a placement is measured.  The cost
law is a function of (key, op, tier), tabled **once** per memory node
(``(2, n_keys)``, row 0 writes, row 1 reads), beside the per-(key, op)
request counts, the LLC hit mask, the trace digest and each table
entry's log-value bin (:class:`NoiseBins`).  A placement is then a
key-long select of times and bins, a fingerprint (the constant parts'
canonical JSON is built once per kernel), and :func:`measure_repeats`:
the per-request noise law in closed form over the (service time,
request count) cells — two bin sums and a solve over a few hundred bins
per percentile, no sort of the cells and nothing request-long, save
under an active fault spec, whose timeline is indexed by time.  Repeat
``r`` of a placement draws from ``derive_seed(seed,
f"{label}/run{r}")``, its label the experiment fingerprint, so it
measures the same alone, in any batch, in any process.
``tests/memsim/test_kernel.py`` keeps the per-request
:class:`~repro.memsim.timing.AccessTimer` loop as its distributional
oracle.

``accuracy="analytic"`` is the same kernel with two differences: its
LLC hit mask is the reuse-time (AET) prediction of
:mod:`repro.memsim.analytic` instead of the exact LRU pass, and it
measures at the noise mean (sigma 0).  It names no fingerprint
(:meth:`BatchKernel.fingerprint` is None): its results are predictions,
never the rows a store keeps under the measured placement's.
"""

from __future__ import annotations

import math

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


def _by_tier(masks, per_tier):
    """``per_tier[k]`` where ``masks[k]`` holds, else the slowest tier's."""
    out = per_tier[-1]
    for mask, value in zip(masks[::-1], per_tier[-2::-1]):
        out = np.where(mask, value, out)
    return out


#: Cells go in bins 1/20 of the least sigma wide in log value; a solve
#: reads the bins within 6 of their own sigmas of its start (Phi(6) =
#: 1 - 1e-9) and stops on a Halley step under 0.005 of the least sigma,
#: relative to x (the error left is of the step's cube over sigma
#: squared: about 1e-7 sigma of x), or after 60 steps.  Without noise
#: the bins only locate order statistics, at the width sigma 0.01 gives.
_WINDOW_SIGMAS = 6.0
_BINS_PER_SIGMA = 20
_ORDER_WIDTH = 0.01 / _BINS_PER_SIGMA
_SOLVE_TOLERANCE = 0.005
_SOLVE_STEPS = 60


class NoiseBins:
    """The noise law's constants over one set of cells: the factor's
    moments and the log-value bins the percentiles are solved on.

    *kinds* are the sigma scales the cells take, ascending (None: one,
    sigma itself).  Bin ``k`` holds the values in ``[edges[k],
    edges[k + 1])``, ``edges`` geometric from *low* past *high* — so a
    higher bin never holds a lower value, however the log rounds.  A
    :class:`BatchKernel` makes one over every value its cells with
    requests take, on every tier, and bins those once; other callers
    bin their own cells (:meth:`over`).
    """

    def __init__(self, noise, low: float, high: float, kinds=None):
        self.noise = noise
        self.kinds = np.ones(1) if kinds is None else kinds
        if noise.sigma == 0.0:
            self.moments = 1.0, 0.0
            self.width = _ORDER_WIDTH
        else:
            self.moments = noise.moments() if kinds is None else \
                noise.moments(kinds)
            self.width = noise.sigma * self.kinds[0] / _BINS_PER_SIGMA
        n = int(math.log(high / low) / self.width) + 3
        self.edges = low * np.exp(self.width * np.arange(n))
        # a window's half-width in steps: the widest kind's 6 sigmas
        self.reach = math.ceil(
            _WINDOW_SIGMAS * _BINS_PER_SIGMA * self.kinds[-1] / self.kinds[0]
        ) + 1

    @classmethod
    def over(cls, noise, times, scale=None):
        """The bins of *times* itself, sigma widened by *scale*."""
        kinds = None if scale is None or noise.sigma == 0.0 \
            else np.unique(scale)
        return cls(noise, float(times.min()), float(times.max()), kinds)

    def steps(self, values):
        """Each value's bin (the log guesses it, the edges decide), for
        values in ``[low, high]``."""
        step = (np.log(values / self.edges[0]) / self.width).astype(np.intp)
        step -= values < self.edges[step]
        step += values >= self.edges[step + 1]
        return step


def _solve_counts(count, hi, below, target, x, tolerance):
    """Per row, the x where ``below + count(x)[0]`` is *target*: Halley
    from *x* (Newton where its correction is large), bisecting when a
    step leaves the bracket ``[0, hi]``, whose ends straddle the root;
    a row keeps its first Halley step under *tolerance* of x.  *count*
    is a :meth:`~repro.memsim.timing.NoiseModel.counter`."""
    lo = [0.0] * len(x)
    x = [xi if 0.0 < xi < h else 0.5 * h for xi, h in zip(x, hi)]
    open_rows = list(range(len(x)))
    for _ in range(_SOLVE_STEPS):
        sums = count([x[i] for i in open_rows], open_rows).tolist()
        for i, c, slope, bend in zip(list(open_rows), *sums):
            excess = below[i] + c - target[i]
            if excess < 0.0:
                lo[i] = x[i]
            else:
                hi[i] = x[i]
            step, halley = lo[i], False
            if slope > 0.0:
                newton = excess / slope
                bend = 0.5 * newton * bend / slope
                halley = abs(bend) < 0.5
                step = x[i] - (newton / (1.0 - bend) if halley else newton)
            if not lo[i] < step < hi[i]:
                step, halley = 0.5 * (lo[i] + hi[i]), False
            if halley and abs(step - x[i]) <= tolerance * x[i]:
                open_rows.remove(i)
            x[i] = step
        if not open_rows:
            break
    return x


def mixture_percentiles(bins, values, weights, weighted, steps, percentiles,
                        kind=None):
    """Percentiles of the requests, *weights* per cell of *values* (in
    bin *steps* of *bins*; *weighted* is their product), each times an
    i.i.d. noise factor (sigma times ``bins.kinds[kind[i]]``).

    ``np.percentile`` reads order statistic ``h = (n - 1) q / 100``.
    Without noise that is exact: the cumulative bin weights name the bin
    holding it, and only the cells of such bins are sorted.  With noise
    it sits where the expected count at or below x is ``h + 1/2``,
    solved from the noise-free quantile over the bins, each at its
    weighted mean, within ``bins.reach`` steps of it.  A percentile in a
    gap between cells wider than the noise keeps its noise-free value.
    """
    if not percentiles:
        return {}
    nk = bins.kinds.size
    span = 2 * bins.reach + 1
    # zero bins past the top, so that every window is a whole slice
    n_steps = bins.edges.size - 1 + span
    slot = steps if kind is None else steps * nk + kind
    bin_w = np.bincount(slot, weights, minlength=n_steps * nk)
    step_w = bin_w if kind is None else bin_w.reshape(n_steps, nk).sum(1)
    cum = np.cumsum(step_w)
    total = float(cum[-1])
    pos = [min(max(q / 100.0 * (total - 1.0), 0.0), total - 1.0)
           for q in percentiles]
    ranks = [*map(math.floor, pos), *map(math.ceil, pos)]
    # the cells of the bins holding the ranks, sorted by value: a rank
    # in bin b is the one ``cum[b] - picked[b]`` lower among them, where
    # *picked* counts the requests of the chosen bins up to b
    held = np.searchsorted(cum, ranks, side="right").tolist()
    picked, skipped = 0.0, {}
    for b in sorted(set(held)):
        picked += step_w[b]
        skipped[b] = cum[b] - picked
    chosen = np.zeros(n_steps, dtype=bool)
    chosen[held] = True
    cells = np.flatnonzero(chosen[steps])
    v = values[cells]
    order = np.argsort(v)
    at = v[order][np.searchsorted(
        np.cumsum(weights[cells][order]),
        [r - skipped[b] for r, b in zip(ranks, held)], side="right",
    )].tolist()
    n = len(pos)
    x0 = [v0 + (p - j0) * (v1 - v0)
          for p, j0, v0, v1 in zip(pos, ranks, at[:n], at[n:])]
    out = dict(zip(percentiles, x0))
    if bins.noise.sigma == 0.0:
        return out
    # a window: the span of steps from reach below the noise-free value
    # (or from the first step), its weight above *below*
    rows, starts, below, target = [], [], [], []
    for r, (q, step) in enumerate(zip(percentiles, (np.searchsorted(
        bins.edges, x0, side="right") - 1).tolist())):
        lo = max(step - bins.reach, 0)
        under = float(cum[lo - 1]) if lo else 0.0
        goal = q / 100.0 * (total - 1.0) + 0.5
        if under < goal <= cum[lo + span - 1]:
            rows.append(r)
            starts.append(lo * nk)
            below.append(under)
            target.append(goal)
    if not rows:
        return out
    index = np.array(starts)[:, None] + np.arange(span * nk)
    window_w = bin_w[index]
    # each bin at its weighted mean (an empty one at the lowest value)
    window_v = np.bincount(slot, weighted, minlength=bin_w.size)[index]
    empty = window_w == 0.0
    window_v = np.where(empty, bins.edges[0], window_v) / np.where(
        empty, 1.0, window_w
    )
    scales = 1.0 if kind is None else bins.kinds[index % nk]
    x = _solve_counts(
        bins.noise.counter(window_v, window_w, scales),
        (window_v.max(axis=1) * (
            1.0 + 10.0 * bins.noise.sigma * bins.kinds[-1]
        )).tolist(),
        below, target, [x0[r] for r in rows],
        _SOLVE_TOLERANCE * bins.noise.sigma * bins.kinds[0],
    )
    for r, value in zip(rows, x):
        out[percentiles[r]] = value
    return out


def measure_repeats(client, trace, engine, times, counts, label, scale=None,
                    noise=None, binned=None):
    """*client*'s noise repeats over cells of ``counts`` requests of
    noise-free time ``times`` (``(2, cells)``: writes, reads), rooted in
    *label*, sigma widened per cell by *scale* (jitter faults), under
    *noise* (default ``client.noise``).  *binned* is ``(bins, live,
    steps)``: a :class:`NoiseBins`, the flat indices of the cells the
    percentiles read (those with requests) and their bins (default: all
    cells, binned by :meth:`NoiseBins.over`).

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
    if binned is None:
        bins = NoiseBins.over(noise, times, scale)
        binned = bins, None, bins.steps(times).ravel()
    bins, live, steps = binned
    mean, var = bins.moments
    kind = None
    if scale is not None and noise.sigma != 0.0:
        kind = np.searchsorted(bins.kinds, scale)
        mean, var = mean[kind], var[kind]
        kind = np.broadcast_to(kind, times.shape).ravel()
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
    pct = mixture_percentiles(bins, *(
        a.ravel() if live is None else a.ravel()[live]
        for a in (times, counts, weighted)
    ), steps, client.percentiles, kind)
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
        so a result carries ``runtime_std_ns == 0``.  Fault timelines
        stay the measured placement's; :meth:`fingerprint` is None.
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
        # as floats, the counts weigh times and bins with no conversion
        self._counts = self._counts.astype(np.float64)
        # the percentiles read only the cells with requests: their
        # values on every tier go in log-value bins once (a faulty
        # placement's cells are its requests, binned per placement)
        if not self._faulty:
            # each op's cells with requests, and their keys (the LLC-hit
            # column reads as key n_keys)
            writes, reads = map(np.flatnonzero, self._counts > 0)
            self._live_keys = np.concatenate((writes, reads))
            self._live = np.concatenate(
                (writes, reads + self._counts.shape[1])
            )
            values = self.tables
            if self._hit_times is not None:
                values = np.concatenate((values, np.broadcast_to(
                    self._hit_times, (len(values), 2, 1),
                )), axis=2)
            values = values.reshape(len(values), -1).take(self._live, axis=1)
            self._bins = NoiseBins(
                self._noise, float(values.min()), float(values.max()),
            )
            self._step_tables = self._bins.steps(values)
        self._analytic = analytic
        self._fingerprints = None

    def fingerprint(self, placement: np.ndarray) -> str | None:
        """The experiment fingerprint of one placement: None if unseeded,
        or on an analytic kernel (a prediction is not the measurement a
        store row under that fingerprint holds).

        Identical to ``client.experiment_fingerprint(trace, deployment)``
        for a deployment carrying *placement* — computed without building
        the deployment.
        """
        if self._live_seed or self._analytic:
            return None
        return self._label(
            check_placement(placement, self.record_sizes.size,
                            len(self.tables)),
            None,
        )

    def _label(self, placement, fingerprint):
        """The noise and fault-timeline root of a canonical *placement*:
        *fingerprint*, else its (measured) experiment fingerprint."""
        if self._live_seed:
            # live-generator clients are not fingerprintable; every
            # derive_seed call draws from the generator, so a static
            # label still yields fresh independent streams
            return self.trace.name
        if fingerprint:
            return fingerprint
        if self._fingerprints is None:
            from repro.runner.fingerprint import experiment_fingerprinter

            self._fingerprints = experiment_fingerprinter(
                self.trace_digest, self.profile, self.system, self.client,
            )
        return self._fingerprints(placement)

    def _cells(self, placement, fingerprint):
        """``(noise label, noise-free times, sigma scale, binned)`` of
        the kernel's cells (``_counts`` requests each) under *placement*;
        *binned* is ``(bins, live cells, their bins)`` (None under
        faults), as :func:`measure_repeats` takes it."""
        n_tiers = len(self.tables)
        placement = check_placement(placement, self.record_sizes.size, n_tiers)
        label = self._label(placement, fingerprint)
        # the keys each tier but the slowest holds
        masks = ([placement] if n_tiers == 2
                 else [placement == k for k in range(n_tiers - 1)])
        if not self._faulty:
            times = _by_tier(masks, self.tables)
            if self._hit_times is not None:
                times = np.concatenate((times, self._hit_times), axis=1)
            # an LLC-hit cell is on no tier: any key's tier will do
            tier = placement.take(self._live_keys, mode="clip")
            steps = _by_tier(
                [tier] if n_tiers == 2
                else [tier == k for k in range(n_tiers - 1)],
                self._step_tables,
            )
            return label, times, None, (self._bins, self._live, steps)
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
        return (label, np.broadcast_to(base, self._counts.shape),
                noise_scale, None)

    def base_times(self, placement: np.ndarray, fingerprint: str | None = None):
        """``(label, base_ns, noise_scale)``: a placement's noise-free
        times in request order, for open-loop consumers that draw noise
        per request (:meth:`~repro.ycsb.client.YCSBClient.sample_service_times`).
        """
        label, times, scale, _ = self._cells(placement, fingerprint)
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
        label, times, scale, binned = self._cells(placement, fingerprint)
        return measure_repeats(
            self.client, self.trace, self.profile.name, times, self._counts,
            label, scale, self._noise, binned,
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
