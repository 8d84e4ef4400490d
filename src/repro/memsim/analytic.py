"""Closed-form performance prediction: the Che-approximation fast path.

Simulation answers "what would this placement measure?" by realising
every request (noise repeats included).  This module answers the same
question analytically, from *per-key* aggregates:

- the runtime/latency model is the simulator's own cost formula
  ``t = cpu + passes * (latency + bytes / bandwidth)`` evaluated once
  per key instead of once per request — exact for the no-LLC simulator
  up to measurement noise, whose multiplicative factors average to 1;
- the LLC is predicted with Che-style characteristic-time reasoning
  [Che et al. 2002]: an LRU behaves as if every entry were evicted a
  fixed time ``T`` after its last use, where ``T`` is solved from the
  capacity constraint.  Two estimators implement it:

  * :func:`che_hit_rates` — the classic form over the key-popularity
    CDF: with per-key probabilities ``p_k`` and sizes ``s_k``, a key
    hits with probability ``h_k = 1 - exp(-p_k * T)`` where ``T``
    solves ``sum_k s_k (1 - exp(-p_k T)) = C``.  Exact per-key rates,
    but it inherits the independent-reference (stationary popularity)
    assumption;
  * :func:`reuse_time_hit_counts` — the same eviction-age idea applied
    to the trace's *empirical* reuse-time distribution (the AET model
    of Hu et al., ATC'16): ``T`` solves ``mean_j(s_j * min(fwd_j, T))
    = C`` over per-request forward reuse times, and an access hits iff
    its backward reuse time is at most ``T``.  This reduces to Che
    under the independent-reference model and stays accurate for
    recency-driven workloads (e.g. the "latest" YCSB distribution),
    whose temporal locality a popularity CDF cannot see — so it is
    what :func:`predict_placement` uses.

The analytic path takes noise at its mean of 1 and predicts the LLC
where the simulator solves the noise mixture and replays the exact hit
mask — the ``accuracy="analytic"`` mode on the
:class:`~repro.core.mnemo.Mnemo` facade.  Its error envelope
is quantified against the simulator on the YCSB presets in
``tests/memsim/test_analytic.py`` and recorded in ``BENCH_kernel.json``.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro import telemetry
from repro.errors import ConfigurationError
from repro.memsim.kernel import _weighted_percentiles
from repro.memsim.timing import service_tables

#: Bisection iterations for the characteristic time (halves the bracket
#: each step; 100 steps resolve T far below float64 noise).
_BISECT_STEPS = 100
#: Bracket-doubling cap while searching for an upper bound on T.
_DOUBLING_CAP = 200


def che_characteristic_time(
    popularity: np.ndarray, sizes: np.ndarray, capacity_bytes: int,
) -> float:
    """The Che characteristic time T (in requests) of an LRU cache.

    Solves ``sum_k s_k (1 - exp(-p_k T)) = C`` over the keys that can
    fit (``s_k <= C``) and are referenced (``p_k > 0``); oversized
    records bypass the cache, exactly as :class:`~repro.memsim.cache.LLCModel`
    treats them.  Returns ``inf`` when every fitting key's bytes sum to
    at most the capacity — nothing that entered is ever evicted.
    """
    if capacity_bytes <= 0:
        return 0.0
    p = np.asarray(popularity, dtype=np.float64)
    s = np.asarray(sizes, dtype=np.float64)
    active = (p > 0) & (s <= capacity_bytes)
    ps, ss = p[active], s[active]
    if ps.size == 0 or ss.sum() <= capacity_bytes:
        return np.inf

    def resident_bytes(t: float) -> float:
        return float(-(ss * np.expm1(-ps * t)).sum())

    hi = 1.0
    for _ in range(_DOUBLING_CAP):
        if resident_bytes(hi) >= capacity_bytes:
            break
        hi *= 2.0
    lo = 0.0
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if resident_bytes(mid) < capacity_bytes:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def che_hit_rates(
    counts: np.ndarray, sizes: np.ndarray, capacity_bytes: int,
) -> np.ndarray:
    """Per-key steady-state LRU hit probabilities (Che approximation).

    Parameters
    ----------
    counts:
        Per-key access counts (reads + writes) over the trace.
    sizes:
        Per-key record sizes in bytes.
    capacity_bytes:
        LRU capacity.

    Oversized or never-referenced keys get probability 0.  When the
    referenced working set fits, every fitting key gets 1 — the cache
    never evicts.
    """
    counts = np.asarray(counts, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.float64)
    if counts.shape != sizes.shape:
        raise ConfigurationError(
            f"counts and sizes must align, got {counts.shape} vs {sizes.shape}"
        )
    h = np.zeros(counts.shape)
    total = counts.sum()
    if total == 0 or capacity_bytes <= 0:
        return h
    p = counts / total
    active = (p > 0) & (sizes <= capacity_bytes)
    t = che_characteristic_time(p, sizes, capacity_bytes)
    if np.isinf(t):
        h[active] = 1.0
    else:
        h[active] = -np.expm1(-p[active] * t)
    return h


def reuse_time_eviction_age(
    keys: np.ndarray, sizes: np.ndarray, capacity_bytes: int,
) -> float:
    """The average eviction age T (in requests) of a byte-capped LRU.

    Solves ``mean_j(eff_j * min(fwd_j, T)) = C``: an access occupies its
    record's bytes until reuse or eviction, whichever comes first, so
    the left side is the expected resident bytes when entries age out
    ``T`` requests after their last access.  ``fwd_j`` is request j's
    forward reuse time (``inf`` when the key never recurs) and ``eff_j``
    zeroes records larger than the capacity (they bypass the cache).
    Returns ``inf`` when the full working set fits — nothing ages out.
    """
    from repro.memsim.cache import _occurrences

    if capacity_bytes <= 0 or keys.size == 0:
        return 0.0
    _, nxt = _occurrences(np.ascontiguousarray(keys))
    return _eviction_age(nxt, sizes, capacity_bytes)


def _eviction_age(
    nxt: np.ndarray, sizes: np.ndarray, capacity_bytes: int,
) -> float:
    """:func:`reuse_time_eviction_age` from the next-occurrence array."""
    n = nxt.size
    eff = np.where(sizes <= capacity_bytes, sizes, 0).astype(np.float64)
    fwd = np.where(nxt < n, nxt - np.arange(n), n).astype(np.float64)
    order = np.argsort(fwd, kind="stable")
    gaps = fwd[order]
    w = eff[order]
    cum_w = np.cumsum(w)
    cum_gw = np.cumsum(w * gaps)
    total_w = cum_w[-1]
    # resident bytes at T = gaps[i] (piecewise linear, nondecreasing):
    # (sum of w*g over gaps <= T  +  T * remaining weight) / n
    resident = (cum_gw + gaps * (total_w - cum_w)) / n
    if total_w == 0 or resident[-1] <= capacity_bytes:
        return np.inf
    i = int(np.searchsorted(resident, capacity_bytes))
    below_gw = cum_gw[i - 1] if i > 0 else 0.0
    below_w = cum_w[i - 1] if i > 0 else 0.0
    return (capacity_bytes * n - below_gw) / max(total_w - below_w, 1e-300)


def reuse_time_hit_counts(
    keys: np.ndarray, sizes: np.ndarray, n_keys: int, capacity_bytes: int,
) -> np.ndarray:
    """Per-key predicted LLC hit counts from the reuse-time model.

    ``keys`` and ``sizes`` are per-*request* arrays (a trace's ``keys``
    and ``request_sizes``); the result has length ``n_keys``.  An access
    hits iff its record fits and its backward reuse time is at most the
    eviction age from :func:`reuse_time_eviction_age`; first touches
    always miss.  O(n log n), no LRU replay.
    """
    from repro.memsim.cache import _occurrences

    keys = np.ascontiguousarray(keys)
    n = keys.size
    if n == 0 or capacity_bytes <= 0:
        return np.zeros(n_keys, dtype=np.int64)
    prev, nxt = _occurrences(keys)
    age = _eviction_age(nxt, sizes, capacity_bytes)
    gap = np.arange(n) - prev
    hit = (prev >= 0) & (sizes <= capacity_bytes) & (gap <= age)
    return np.bincount(keys[hit], minlength=n_keys)


#: Per-(trace, capacity) reuse-time hit counts.  The counts are
#: placement-independent — the LLC sees the same request stream whatever
#: the placement — so a sweep predicting many placements of one trace
#: pays the O(n log n) reuse-time solve once.  Keyed by object id with a
#: weakref finalizer evicting dead entries (same idiom as the client's
#: fingerprint memos), so a recycled id can never alias.
_hit_counts_memo: dict[tuple[int, int], np.ndarray] = {}


def _cached_hit_counts(trace, capacity_bytes: int) -> np.ndarray:
    key = (id(trace), capacity_bytes)
    hits = _hit_counts_memo.get(key)
    if hits is None:
        hits = reuse_time_hit_counts(
            trace.keys, trace.request_sizes, trace.n_keys, capacity_bytes
        )
        hits.flags.writeable = False
        _hit_counts_memo[key] = hits
        weakref.finalize(trace, _hit_counts_memo.pop, key, None)
    return hits


def predict_placement(trace, profile, system, fast_mask, client):
    """Closed-form ``RunResult`` for one placement of *trace*.

    Mirrors :meth:`~repro.ycsb.client.YCSBClient.execute` — same cost
    formula, same concurrency/contention treatment, same LLC hit-time
    substitution — but aggregated per key, with the LLC predicted by
    :func:`che_hit_rates` (first touches always miss; the Che rate
    applies to re-references) and noise replaced by its mean of 1.
    ``runtime_std_ns`` is reported as 0 — there is nothing stochastic
    to deviate.

    Parameters
    ----------
    trace / profile / system / fast_mask:
        What to predict: the workload, engine cost profile, memory
        system and boolean per-key placement.
    client:
        Supplies the measurement settings the prediction must mirror
        (concurrency, contention, ``use_llc``, repeats, percentiles).
    """
    from repro.ycsb.client import RunResult  # lazy: import cycle

    telemetry.count("memsim.path", path="analytic")
    mask = np.asarray(fast_mask)
    if mask.dtype != np.bool_ or mask.shape != (trace.n_keys,):
        raise ConfigurationError(
            f"placement mask must be bool of shape ({trace.n_keys},), "
            f"got {mask.dtype} {mask.shape}"
        )
    reads, writes = trace.per_key_counts()
    nodes = (system.fast, system.slow)
    fast_tab, slow_tab = service_tables(
        profile, trace.record_sizes, [n.latency_ns for n in nodes],
        [n.bytes_per_ns for n in nodes], client.pass_scale,
    )
    write_miss, read_miss = np.where(mask, fast_tab, slow_tab)

    if client.use_llc:
        counts = trace.access_counts()
        llc = system.llc
        hit_counts = _cached_hit_counts(trace, llc.capacity_bytes)
        hit_frac = np.divide(
            hit_counts.astype(np.float64),
            counts,
            out=np.zeros(counts.shape, dtype=np.float64),
            where=counts > 0,
        )
        read_hit = np.full(mask.shape, profile.read_cpu_ns + llc.hit_latency_ns)
        write_hit = np.full(
            mask.shape, profile.write_cpu_ns + llc.hit_latency_ns
        )
    else:
        hit_frac = np.zeros(mask.shape)
        read_hit, write_hit = read_miss, write_miss

    read_t = (1 - hit_frac) * read_miss + hit_frac * read_hit
    write_t = (1 - hit_frac) * write_miss + hit_frac * write_hit
    read_total = float((reads * read_t).sum())
    write_total = float((writes * write_t).sum())
    n_reads = int(reads.sum())
    n_writes = int(writes.sum())

    pct: dict[float, float] = {}
    if client.percentiles:
        values = np.concatenate([read_miss, read_hit, write_miss, write_hit])
        weights = np.concatenate([
            reads * (1 - hit_frac), reads * hit_frac,
            writes * (1 - hit_frac), writes * hit_frac,
        ])
        pct = _weighted_percentiles(values, weights, client.percentiles)

    return RunResult(
        workload=trace.name,
        engine=profile.name,
        n_requests=trace.n_requests,
        n_reads=n_reads,
        n_writes=n_writes,
        runtime_ns=(read_total + write_total) / client.concurrency,
        avg_read_ns=read_total / n_reads if n_reads else 0.0,
        avg_write_ns=write_total / n_writes if n_writes else 0.0,
        latency_percentiles_ns=pct,
        repeats=client.repeats,
        runtime_std_ns=0.0,
        concurrency=client.concurrency,
    )


def predict_baselines(trace, profile, system, client):
    """Analytic :class:`~repro.core.sensitivity.PerformanceBaselines`.

    The two extreme placements predicted in closed form — the analytic
    stand-in for :meth:`~repro.core.sensitivity.SensitivityEngine.measure`.
    ``flags`` stay empty: unlike a degraded measurement, an analytic
    profile is a deliberate accuracy choice the caller made, surfaced
    by the facade's ``accuracy`` setting rather than by a confidence
    penalty.
    """
    from repro.core.sensitivity import PerformanceBaselines  # lazy: cycle

    n = trace.n_keys
    fast = predict_placement(
        trace, profile, system, np.ones(n, dtype=bool), client
    )
    slow = predict_placement(
        trace, profile, system, np.zeros(n, dtype=bool), client
    )
    return PerformanceBaselines(fast=fast, slow=slow, flags=())
