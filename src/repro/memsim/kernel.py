"""Multi-placement batch simulation kernel.

Every sweep, validation replay and drift drill evaluates the *same trace*
against many placements, and a placement is fully described by one
array over the key space (:func:`check_placement`) — no
:class:`~repro.kvstore.server.HybridDeployment` is needed to measure
one.

:class:`BatchKernel` is the one way a placement is measured.  The cost
law is a function of (key, op, tier), tabled **once** per memory node
(``(2, n_keys)``, row 0 writes, row 1 reads), beside the per-(key, op)
request counts, the LLC hit mask, the trace digest, each table entry's
log-value bin (:class:`NoiseBins`) and its terms ``count t`` and
``count t^2``, rounded so that every sum of them is exact
(:func:`_exact`).  Placements are measured as families: a nested one
— a sweep's splits, a curve's prefixes — is one ``bincount`` pass
(:meth:`BatchKernel._family`), then the per-request noise law in
closed form (:func:`mixture_percentiles`: two bin sums and one solve
over a few hundred bins per percentile), nothing request-long, save
under an active fault spec, whose timeline is indexed by time
(:func:`measure_repeats`).  Repeat ``r`` of a placement draws from
``derive_seed(seed, f"{label}/run{r}")``, its label the experiment
fingerprint, so it measures the same bits alone, in any batch, in any
process.  ``tests/memsim/test_kernel.py`` keeps the per-request
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
        # zero steps past the top, so that every window is a whole slice
        self.n_steps = n - 1 + 2 * self.reach + 1

    @classmethod
    def over(cls, noise, times, scale=None):
        """The bins of *times* itself, sigma widened by *scale*."""
        kinds = None if scale is None or noise.sigma == 0.0 \
            else np.unique(scale)
        return cls(noise, float(times.min()), float(times.max()), kinds)

    def steps(self, values):
        """Each value's bin (the log guesses it, the edges decide), for
        values in ``[low, high]``."""
        guess = np.divide(values, self.edges[0])
        np.log(guess, out=guess)
        guess /= self.width
        step = guess.astype(np.intp)
        # in place: a value-long temporary each costs as much as a pass
        edge, off = guess, np.empty(values.shape, dtype=bool)
        np.less(values, self.edges.take(step, out=edge), out=off)
        step -= off
        step += 1
        np.greater_equal(values, self.edges.take(step, out=edge), out=off)
        step -= 1
        step += off
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


def mixture_percentiles(bins, bin_w, bin_v, cells, percentiles):
    """Percentiles of the requests of each row of *bin_w* — a set of
    cells' request counts per bin of *bins* (``bins.kinds.size`` sigma
    kinds per step) — each request times an i.i.d. noise factor.
    *bin_v* returns the rows' weighted values per bin (read only with
    noise), ``cells(rows, steps)`` the ``(rows, values, weights)`` of
    the cells in each ``steps[i]`` of row ``rows[i]`` (rows ascending),
    flat and row after row.

    ``np.percentile`` reads order statistic ``h = (n - 1) q / 100``.
    Without noise that is exact: the cumulative bin weights name the bin
    holding it, and only the cells of such bins are sorted.  With noise
    it sits where the expected count at or below x is ``h + 1/2``,
    solved from the noise-free quantile over the bins, each at its
    weighted mean, within ``bins.reach`` steps of it.  A percentile in a
    gap between cells wider than the noise keeps its noise-free value.
    The rows' windows share one solve, each row solved alone
    (:func:`_solve_counts`) over its bins with requests, so a row's
    percentiles do not depend on the others.
    """
    m = len(bin_w)
    if not percentiles or not m:
        return [{} for _ in range(m)]
    nk = bins.kinds.size
    span = 2 * bins.reach + 1
    step_w = bin_w if nk == 1 else bin_w.reshape(m, -1, nk).sum(2)
    cum = np.cumsum(step_w, axis=1)
    rows = np.arange(m)[:, None]
    total = cum[:, -1:]
    q = np.array(percentiles, dtype=np.float64)
    pos = np.minimum(np.maximum(q / 100.0 * (total - 1.0), 0.0), total - 1.0)
    ranks = np.hstack((np.floor(pos), np.ceil(pos)))
    # the bin holding each rank: one search over the rows end to end,
    # each lifted past every count before it
    lift = rows * (float(total.max()) + 1.0)
    held = np.searchsorted(
        (cum + lift).ravel(), ranks + lift, side="right",
    ) - rows * cum.shape[1]
    # the cells of a row's held bins, sorted by value: a rank in bin b
    # is the one ``cum[b] - picked`` lower among them, where *picked*
    # counts the requests of its distinct held bins up to b
    same = held[:, :, None] == held[:, None, :]
    distinct = ~(same & np.tri(held.shape[1], k=-1, dtype=bool)).any(axis=2)
    picked = ((step_w[rows, held] * distinct)[:, :, None]
              * (held[:, :, None] <= held[:, None, :])).sum(axis=1)
    skipped = cum[rows, held] - picked
    pair_row, pair_col = np.nonzero(distinct)
    row_of, values, weights = cells(pair_row, held[pair_row, pair_col])
    # by value, then (stably: a radix sort on small ints) by row
    by_value = np.argsort(values)
    by_value = by_value.take(np.argsort(
        row_of.take(by_value).astype(np.min_scalar_type(m)), kind="stable",
    ))
    through = np.cumsum(weights[by_value])
    first = np.searchsorted(row_of[by_value], np.arange(m))
    before = np.where(first > 0, through[first - 1], 0.0)[:, None]
    at = values[by_value][np.searchsorted(
        through, before + (ranks - skipped), side="right",
    )]
    n = q.size
    x0 = at[:, :n] + (pos - ranks[:, :n]) * (at[:, n:] - at[:, :n])
    outs = [dict(zip(percentiles, x)) for x in x0.tolist()]
    if bins.noise.sigma == 0.0:
        return outs
    # a window: the span of steps from reach below the noise-free value
    # (or from the first step), its weight above *below*
    lo = np.maximum(np.searchsorted(bins.edges, x0, side="right") - 1
                    - bins.reach, 0)
    below = np.where(lo > 0, cum[rows, lo - 1], 0.0)
    target = q / 100.0 * (total - 1.0) + 0.5
    row, col = np.nonzero(
        (below < target) & (target <= cum[rows, lo + span - 1])
    )
    if not row.size:
        return outs
    # the windows' bins with requests (at least one each), flat, window
    # after window, each at its weighted mean
    index = (row * bin_w.shape[1] + lo[row, col] * nk)[:, None] \
        + np.arange(span * nk)
    window_w = bin_w.ravel().take(index).ravel()
    live = np.flatnonzero(window_w)
    index, window_w = index.ravel().take(live), window_w.take(live)
    window_v = bin_v().ravel().take(index) / window_w
    starts = np.searchsorted(live, np.arange(row.size + 1) * (span * nk))
    x = _solve_counts(
        bins.noise.counter(window_v, window_w, bins.kinds[index % nk],
                           starts),
        (np.maximum.reduceat(window_v, starts[:-1]) * (
            1.0 + 10.0 * bins.noise.sigma * bins.kinds[-1]
        )).tolist(),
        below[row, col].tolist(), target[row, col].tolist(),
        x0[row, col].tolist(),
        _SOLVE_TOLERANCE * bins.noise.sigma * bins.kinds[0],
    )
    for r, c, value in zip(row.tolist(), col.tolist(), x):
        outs[r][percentiles[c]] = value
    return outs


def _exact(terms):
    """*terms* (``(tiers, cells)``, non-negative), rounded in place to
    one power-of-two quantum, so that every sum a family pass forms is
    exact.  Each is of at most every cell's largest term, whose total is
    under ``2^e`` (with a margin for the rounding); a quantum of
    ``2^(e - 53)`` makes every such sum a multiple of it of at most
    ``2^53`` of it."""
    bound = float(terms.max(axis=0).sum()) * (1.0 + 2.0 ** -20)
    quantum = 2.0 ** (math.frexp(bound)[1] - 53)
    terms *= 1.0 / quantum
    np.rint(terms, out=terms)
    terms *= quantum
    return terms


def measure_repeats(client, trace, engine, times, counts, label, scale=None,
                    noise=None):
    """*client*'s noise repeats over cells of ``counts`` requests of
    noise-free time ``times`` (``(2, cells)``: writes, reads), rooted in
    *label*, sigma widened per cell by *scale* (jitter faults), under
    *noise* (default ``client.noise``); the cells are binned by
    :meth:`NoiseBins.over`.

    The noise is i.i.d. per request, so an op's total is normal with
    mean ``S = sum(count t m)`` and variance ``Q = sum(count t^2 v)``,
    ``(m, v)`` the factor's moments (:func:`_repeats` draws them).
    Percentiles are the noise mixture's (:func:`mixture_percentiles`).
    """
    noise = client.noise if noise is None else noise
    bins = NoiseBins.over(noise, times, scale)
    mean, var = bins.moments
    kind = None
    if scale is not None and noise.sigma != 0.0:
        kind = np.searchsorted(bins.kinds, scale)
        mean, var = mean[kind], var[kind]
        kind = np.broadcast_to(kind, times.shape).ravel()
    weighted = counts * times
    steps = bins.steps(times).ravel()
    slot = steps if kind is None else steps * bins.kinds.size + kind
    size = bins.n_steps * bins.kinds.size

    def cells(rows, wanted):
        marked = np.zeros(bins.n_steps, dtype=bool)
        marked[wanted] = True
        picked = np.flatnonzero(marked.take(steps))
        return (np.zeros(picked.size, dtype=np.intp),
                times.ravel().take(picked), counts.ravel().take(picked))

    (result,) = _repeats(
        client, trace, engine, (weighted * mean).sum(axis=1)[None],
        np.sqrt((weighted * times * var).sum(axis=1))[None], [label], noise,
        counts.sum(axis=1), mixture_percentiles(
            bins, np.bincount(slot, counts.ravel(), minlength=size)[None],
            lambda: np.bincount(slot, weighted.ravel(), minlength=size)[None],
            cells, client.percentiles,
        ),
    )
    return result


def _repeats(client, trace, engine, sums, spread, labels, noise, n_ops,
             pcts):
    """One ``RunResult`` per row of op totals of mean ``sums`` and sd
    ``spread`` (``(m, 2)``: writes, reads) over ``n_ops`` requests, and
    its percentiles: repeat ``r`` of a row draws two normals from
    ``derive_seed(seed, f"{label}/run{r}")``, reads ``S_r + sqrt(Q_r)
    z[0]``, writes ``S_w + sqrt(Q_w) z[1]``; at sigma 0 there is nothing
    to draw and one noise-free total stands for every repeat.  Each
    row's statistics reduce that row alone."""
    from repro.ycsb.client import RunResult  # lazy: import cycle

    m = len(labels)
    z = np.zeros((m, 1, 2)) if noise.sigma == 0.0 else np.array([
        ensure_rng(derive_seed(client.seed, f"{label}/run{r}"))
        .standard_normal(2)[::-1]
        for label in labels for r in range(client.repeats)
    ]).reshape(m, client.repeats, 2)
    write_sums, read_sums = np.ascontiguousarray(
        (sums[:, None] + spread[:, None] * z).transpose(2, 0, 1)
    )
    runtimes = (read_sums + write_sums) / client.concurrency
    n_writes, n_reads = (int(n) for n in n_ops)
    return [
        RunResult(
            workload=trace.name,
            engine=engine,
            n_requests=trace.n_requests,
            n_reads=n_reads,
            n_writes=n_writes,
            runtime_ns=runtime,
            avg_read_ns=read / n_reads if n_reads else 0.0,
            avg_write_ns=write / n_writes if n_writes else 0.0,
            latency_percentiles_ns=pct,
            repeats=client.repeats,
            runtime_std_ns=std,
            concurrency=client.concurrency,
        )
        for runtime, std, read, write, pct in zip(
            runtimes.mean(axis=1).tolist(), runtimes.std(axis=1).tolist(),
            read_sums.mean(axis=1).tolist(), write_sums.mean(axis=1).tolist(),
            pcts,
        )
    ]


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
        self.trace_digest = None if self._live_seed else trace.digest
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
        self._analytic = analytic
        self._fingerprints = None
        if self._faulty:
            return
        # the family pass's tables (:meth:`_family`): over the cells with
        # requests, then one empty cell (no requests, in the top step,
        # which no percentile reads) that every key's cell without
        # requests maps to, each one's value, noise bin (the values on
        # every tier go in log-value bins once) and exact-sum terms
        # ``count t`` and ``count t^2`` (:func:`_exact`) per tier
        n_tiers, n_cols = len(self.tables), self._counts.shape[1]
        values = self.tables
        if self._hit_times is not None:
            values = np.concatenate((values, np.broadcast_to(
                self._hit_times, (n_tiers, 2, 1),
            )), axis=2)
        counts = self._counts.ravel()
        live = np.flatnonzero(counts > 0)
        self._n_write_cells = int(np.searchsorted(live, n_cols))
        cells = np.append(live, live[0])
        self._cell_keys = np.where(cells < n_cols, cells, cells - n_cols)
        self._cell_counts = counts.take(cells)
        self._cell_counts[-1] = 0.0
        self._cell_values = values = values.reshape(n_tiers, -1).take(
            cells, axis=1,
        )
        self._bins = bins = NoiseBins(
            self._noise, float(values.min()), float(values.max()),
        )
        self._steps = bins.steps(values)
        self._steps[:, -1] = bins.n_steps - 1
        cell_of = np.full(counts.size, live.size)
        cell_of[live] = np.arange(live.size)
        self._cell_of = cell_of.reshape(2, n_cols)[:, :record_sizes.size]
        terms = self._cell_counts * values
        self._terms = np.stack((terms, terms * values))
        for t in self._terms:
            _exact(t)
        self._bases = {}

    def _base(self, tier):
        """The sums and bin tables (:meth:`_family`) of every key on
        *tier*, built on first use."""
        if tier not in self._bases:
            steps, n_steps = self._steps[tier], self._bins.n_steps
            terms, split = self._terms[:, tier], self._n_write_cells
            self._bases[tier] = (
                np.array([terms[k, part].sum() for k in (0, 1)
                          for part in (slice(split), slice(split, None))]),
                np.bincount(steps, self._cell_counts, minlength=n_steps),
                np.bincount(steps, terms[0], minlength=n_steps)
                if self._noise.sigma != 0.0 else None,
            )
        return self._bases[tier]

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
        """``(noise label, noise-free times, sigma scale, placement)``
        of the kernel's cells (``_counts`` requests each) under
        *placement*, and that placement canonical."""
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
            return label, times, None, placement
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
                noise_scale, placement)

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
        """Measure one placement; returns a ``RunResult``: the
        one-placement :meth:`run_all`.

        ``fingerprint`` may be passed when the caller already computed it
        (e.g. for a cache probe) to avoid hashing the placement twice.
        """
        return self.run_all([placement], [fingerprint])[0]

    def run_all(self, placements, fingerprints=None) -> list:
        """Measure every placement in *placements* (rows or a sequence),
        in order; ``fingerprints``, if given, holds each one's
        precomputed fingerprint (see :meth:`run`).

        Unfaulted, the placements are measured as families
        (:meth:`_family`) and their percentile windows in one solve;
        under an active fault spec each is its requests' cells
        (:func:`measure_repeats`).  Either way a placement measures what
        it measures alone.
        """
        masks = list(placements)
        fps = [None] * len(masks) if fingerprints is None else list(fingerprints)
        if len(fps) != len(masks):
            raise WorkloadError(
                f"{len(masks)} placements but {len(fps)} fingerprints"
            )
        n_keys, n_tiers = self.record_sizes.size, len(self.tables)
        masks = [check_placement(mask, n_keys, n_tiers) for mask in masks]
        if masks:
            telemetry.count("memsim.path", len(masks), path=self._path)
        engine = self.profile.name
        if self._faulty:
            return [measure_repeats(
                self.client, self.trace, engine, times, self._counts, label,
                scale, self._noise,
            ) for label, times, scale, _ in map(self._cells, masks, fps)]
        sums, squares, weights, weighted = self._family(masks)
        n_cells, hit = self._cell_keys.size, (
            n_keys if self._hit_times is not None else -1)

        def cells(rows, wanted):
            # the cells of each (row, step) whose key its placement puts
            # on their tier (an LLC-hit cell is on no tier: it counts on
            # the slowest): the marked steps' cells, by step, then each
            # pair's run of them
            steps = self._steps.ravel()
            marked = np.zeros(self._bins.n_steps, dtype=bool)
            marked[wanted] = True
            at = np.flatnonzero(marked.take(steps))
            at = at.take(np.argsort(steps.take(at).astype(
                np.min_scalar_type(len(marked))), kind="stable"))
            at_steps = steps.take(at)
            start = np.searchsorted(at_steps, wanted)
            n = np.searchsorted(at_steps, wanted, side="right") - start
            ends = np.cumsum(n)
            at = at.take(np.arange(ends[-1]) + np.repeat(start - ends + n, n))
            row = np.repeat(rows, n)
            tier, cell = np.divmod(at, n_cells)
            key = self._cell_keys.take(cell)
            bounds = np.searchsorted(row, np.arange(len(masks) + 1))
            held = np.concatenate([
                placement.take(key[a:b], mode="clip")
                for placement, a, b in zip(masks, bounds, bounds[1:])
            ])
            keep = np.where(key == hit, tier == n_tiers - 1,
                            tier == (~held if n_tiers == 2 else held))
            at = at[keep]
            return (row[keep], self._cell_values.ravel().take(at),
                    self._cell_counts.take(at % n_cells))

        mean, var = self._bins.moments
        return _repeats(
            self.client, self.trace, engine, sums * mean,
            np.sqrt(squares * var), list(map(self._label, masks, fps)),
            self._noise, self._counts.sum(axis=1), mixture_percentiles(
                self._bins, weights, lambda: weighted, cells,
                self.client.percentiles,
            ),
        )

    def _family(self, placements):
        """Per canonical placement, its noise-free sums ``S`` and ``Q``
        (``(m, 2)`` each: writes, reads), bin weights and bin-weighted
        times (``(m, n_steps)`` each; the latter None without noise).

        A family is a chain of placements from a base, the tier its
        first placement puts the most keys on: each later one keeps
        every key its predecessor moved off the base where it was, so
        its tables are its predecessor's plus the deltas of the keys it
        moves (their new tier's terms in, the base's out), each key's
        taken once.  A placement that cannot extend the chain, or would
        move more keys than from its own base, starts a new one.  Every
        term is a multiple of the kernel's quantum (:func:`_exact`), so
        every sum is exact in any order: a placement measures the same
        bits alone as in a family, and from any base.
        """
        n_tiers, n_keys = len(self.tables), self.record_sizes.size
        n_cells, n_steps = self._cell_keys.size, self._bins.n_steps
        terms, steps = self._terms.reshape(2, -1), self._steps.ravel()
        noisy = self._noise.sigma != 0.0
        sums = np.empty((len(placements), 4))
        weights = np.empty((len(placements), n_steps))
        weighted = np.empty_like(weights) if noisy else None
        for row, placement in enumerate(placements):
            if n_tiers == 2:
                fast = np.count_nonzero(placement)
                per_tier = [fast, n_keys - fast]
            else:
                per_tier = np.bincount(placement, minlength=n_tiers).tolist()
            held = max(per_tier)
            own = n_tiers - 1 - per_tier[::-1].index(held)
            moved = None
            if row and not (off & (placement != prev)).any():
                now_off = placement != base if n_tiers > 2 else (
                    placement ^ (base == 0))
                new = np.flatnonzero(now_off > off)
                if new.size <= n_keys - held:
                    moved, off = new, now_off
            if moved is None:
                base = own
                sq, w, v = (t if t is None else t.copy()
                            for t in self._base(base))
                off = placement != base if n_tiers > 2 else (
                    placement ^ (base == 0))
                moved = np.flatnonzero(off)
            prev = placement
            if moved.size:
                cell = self._cell_of.take(moved, axis=1).ravel()
                tier = 1 - base if n_tiers == 2 else np.tile(
                    placement.take(moved), 2).astype(np.intp)
                to, fro = cell + tier * n_cells, cell + base * n_cells
                t_to, t_fro = terms.take(to, axis=1), terms.take(fro, axis=1)
                sq += (t_to - t_fro).reshape(4, -1).sum(axis=1)
                to, fro = steps.take(to), steps.take(fro)
                count = self._cell_counts.take(cell)
                w += (np.bincount(to, count, minlength=n_steps)
                      - np.bincount(fro, count, minlength=n_steps))
                if noisy:
                    v += (np.bincount(to, t_to[0], minlength=n_steps)
                          - np.bincount(fro, t_fro[0], minlength=n_steps))
            sums[row], weights[row] = sq, w
            if noisy:
                weighted[row] = v
        return sums[:, :2], sums[:, 2:], weights, weighted
