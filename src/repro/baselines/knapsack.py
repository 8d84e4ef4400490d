"""0/1 knapsack tiering.

"Some of the existing solutions map the tiering problem to the 0/1
knapsack, where the items are the key-value pairs, together with their
calculated weights and sizes, and the size of the knapsacks are the
fixed capacities" (Section IV).  Two solvers:

- a density greedy (value/size descending) — near-optimal here because
  individual records are tiny relative to the capacity;
- an exact dynamic program over a scaled size grid, for small instances
  and for validating the greedy in tests.
"""

from __future__ import annotations

import numpy as np

from repro.core.pattern import weight_order
from repro.errors import ConfigurationError


def _validate(values: np.ndarray, sizes: np.ndarray, capacity: int) -> None:
    if values.shape != sizes.shape or values.ndim != 1:
        raise ConfigurationError("values and sizes must be aligned 1-D arrays")
    if (sizes <= 0).any():
        raise ConfigurationError("sizes must be positive")
    if (values < 0).any():
        raise ConfigurationError("values must be >= 0")
    if capacity < 0:
        raise ConfigurationError("capacity must be >= 0")


def greedy_knapsack(
    values: np.ndarray, sizes: np.ndarray, capacity: int
) -> np.ndarray:
    """Density-greedy selection; returns chosen indices (key ids)."""
    values = np.asarray(values, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.int64)
    _validate(values, sizes, capacity)
    order = weight_order(values, sizes)
    csum = np.cumsum(sizes[order])
    # take the longest prefix that fits, then try to squeeze later items
    # into the remaining slack (classic greedy refinement)
    prefix = int(np.searchsorted(csum, capacity, side="right"))
    chosen = list(order[:prefix].tolist())
    used = int(csum[prefix - 1]) if prefix else 0
    for idx in order[prefix:]:
        s = int(sizes[idx])
        if used + s <= capacity:
            chosen.append(int(idx))
            used += s
    return np.array(sorted(chosen), dtype=np.int64)


def dp_knapsack(
    values: np.ndarray, sizes: np.ndarray, capacity: int,
    resolution: int = 4096,
) -> np.ndarray:
    """Exact 0/1 knapsack on a scaled size grid; returns chosen indices.

    Sizes are scaled down so the DP table has at most *resolution*
    columns; with ``ceil`` scaling the solution never overfills the
    true capacity (it may be slightly conservative).
    """
    values = np.asarray(values, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.int64)
    _validate(values, sizes, capacity)
    n = values.size
    if n == 0 or capacity == 0:
        return np.empty(0, dtype=np.int64)

    scale = max(1, int(np.ceil(sizes.max() / max(1, resolution // 8))))
    scaled = np.ceil(sizes / scale).astype(np.int64)
    cap = min(int(capacity // scale), int(scaled.sum()))
    if cap == 0:
        return np.empty(0, dtype=np.int64)

    # dp[c] = best value with budget c; choice bits let us backtrack
    dp = np.zeros(cap + 1)
    taken = np.zeros((n, cap + 1), dtype=bool)
    for i in range(n):
        w = int(scaled[i])
        if w > cap:
            continue
        cand = dp[: cap + 1 - w] + values[i]
        better = cand > dp[w:]
        taken[i, w:] = better
        dp[w:] = np.where(better, cand, dp[w:])

    chosen = []
    c = cap
    for i in range(n - 1, -1, -1):
        if taken[i, c]:
            chosen.append(i)
            c -= int(scaled[i])
    return np.array(sorted(chosen), dtype=np.int64)


def knapsack_tiering(
    values: np.ndarray, sizes: np.ndarray, capacity: int,
    exact: bool = False,
) -> np.ndarray:
    """FastMem key selection for a fixed capacity (greedy by default)."""
    if exact:
        return dp_knapsack(values, sizes, capacity)
    return greedy_knapsack(values, sizes, capacity)
