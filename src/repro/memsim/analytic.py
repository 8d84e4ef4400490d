"""Closed-form LLC prediction: the reuse-time (AET) hit mask.

``accuracy="analytic"`` on the :class:`~repro.core.mnemo.Mnemo` facade
predicts a placement instead of measuring it, and it predicts with the
measuring kernel itself (:class:`~repro.memsim.kernel.BatchKernel` with
``analytic=True``): the same cost law, counts, fault path and
percentiles.  Two things differ.  The noise is taken at its mean of 1,
and the LLC hit mask comes from this module rather than from the exact
LRU frontier pass.

The mask is the AET model of Hu et al. (ATC '16): an LRU behaves as if
every entry were evicted a fixed *eviction age* ``T`` after its last
use, where ``T`` solves ``mean_j(s_j * min(fwd_j, T)) = C`` over the
trace's per-request forward reuse times, and an access hits iff its
backward reuse time is at most ``T``.  Under the independent-reference
model this is Che et al.'s characteristic time (2002); on the trace's
empirical reuse times it also sees the temporal locality of
recency-driven workloads (the "latest" YCSB distribution) that a
popularity CDF cannot.  The error envelope against the simulator is
tested on the YCSB presets in ``tests/memsim/test_analytic.py`` and
recorded in ``BENCH_kernel.json``.
"""

from __future__ import annotations

import numpy as np


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
    # forward reuse times are integers in [1, n]: bytes per reuse time
    # is one weighted bincount, no sort
    gaps = np.arange(n + 1)
    w = np.bincount(np.where(nxt < n, nxt - gaps[:-1], n), eff, n + 1)
    cum_w = np.cumsum(w)
    cum_gw = np.cumsum(w * gaps)
    total_w = cum_w[-1]
    # resident bytes at T = g (piecewise linear, nondecreasing):
    # (sum of w*g over reuse times <= T  +  T * remaining weight) / n
    resident = (cum_gw + gaps * (total_w - cum_w)) / n
    if total_w == 0 or resident[-1] <= capacity_bytes:
        return np.inf
    i = int(np.searchsorted(resident, capacity_bytes))
    below_gw = cum_gw[i - 1] if i > 0 else 0.0
    below_w = cum_w[i - 1] if i > 0 else 0.0
    return (capacity_bytes * n - below_gw) / max(total_w - below_w, 1e-300)


def reuse_time_hit_mask(
    keys: np.ndarray, sizes: np.ndarray, capacity_bytes: int,
) -> np.ndarray:
    """Per-request predicted LLC hits from the reuse-time model.

    ``keys`` and ``sizes`` are per-*request* arrays (a trace's ``keys``
    and ``request_sizes``).  An access hits iff its record fits and its
    backward reuse time is at most the eviction age from
    :func:`reuse_time_eviction_age`; first touches always miss.  The
    exact counterpart is :meth:`~repro.memsim.cache.LLCModel.process` on
    a cold cache.  O(n log n), no LRU replay.
    """
    from repro.memsim.cache import _occurrences

    keys = np.ascontiguousarray(keys)
    n = keys.size
    if n == 0 or capacity_bytes <= 0:
        return np.zeros(n, dtype=bool)
    prev, nxt = _occurrences(keys)
    age = _eviction_age(nxt, sizes, capacity_bytes)
    gap = np.arange(n) - prev
    return (prev >= 0) & (sizes <= capacity_bytes) & (gap <= age)


def predict_baselines(trace, profile, system, client):
    """Analytic :class:`~repro.core.sensitivity.PerformanceBaselines`.

    The all-FastMem and all-SlowMem placements on one analytic
    :class:`~repro.memsim.kernel.BatchKernel` — the stand-in for
    :meth:`~repro.core.sensitivity.SensitivityEngine.measure`.  Being
    analytic earns no flag: it is a deliberate accuracy choice the
    caller made, surfaced by the facade's ``accuracy`` setting rather
    than by a confidence penalty.  Under an active fault spec both
    sides are flagged ``"<side>:faulty"``, as measured ones are.
    """
    from repro.core.sensitivity import PerformanceBaselines  # lazy: cycle
    from repro.memsim.kernel import BatchKernel

    n = trace.n_keys
    kernel = BatchKernel(client, trace, profile, system, analytic=True)
    fast, slow = kernel.run_all(
        [np.ones(n, dtype=bool), np.zeros(n, dtype=bool)]
    )
    faulty = client.faults is not None and client.faults.active
    flags = ("fast:faulty", "slow:faulty") if faulty else ()
    return PerformanceBaselines(fast=fast, slow=slow, flags=flags)
