"""The hybrid-memory cost-reduction model.

With total capacity ``C``, ``F`` bytes of FastMem and ``S = C - F`` bytes
of SlowMem that is ``p`` times cheaper per byte, the memory system costs
a fraction

    R(p) = (F + (C - F) * p) / C

of the FastMem-only cost (paper Section II).  ``R`` runs from ``p``
(SlowMem-only, maximum savings) to 1 (FastMem-only, no savings).  The
paper fixes ``p = 0.2`` from NVDIMM price projections.

With N tiers, fastest first, each at a price factor relative to tier 0,
the law is the capacity-weighted price (:func:`tier_cost_factor`).  R
is its two-tier case up to rounding: R weights before it divides, the
N-tier law divides first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

#: The paper's price factor: SlowMem at 0.2x the per-byte FastMem cost.
DEFAULT_PRICE_FACTOR = 0.2

#: ``HybridMemorySystem.dram_nvm_far``'s far tier: 0.08x the FastMem cost.
FAR_PRICE_FACTOR = 0.08


def _validate_p(p: float) -> None:
    if not 0 < p < 1:
        raise ConfigurationError(
            f"price factor p must be in (0, 1), got {p} "
            "(p >= 1 means SlowMem is not cheaper)"
        )


def cost_reduction_factor(
    fast_bytes, total_bytes, p: float = DEFAULT_PRICE_FACTOR
):
    """``R(p)`` for a FastMem share — scalar or vectorized over arrays.

    Parameters
    ----------
    fast_bytes:
        FastMem capacity F (scalar or array).
    total_bytes:
        Total capacity C (scalar, or array broadcastable with F).
    p:
        SlowMem per-byte price as a fraction of FastMem's.
    """
    _validate_p(p)
    fast = np.asarray(fast_bytes, dtype=np.float64)
    total = np.asarray(total_bytes, dtype=np.float64)
    if (total <= 0).any():
        raise ConfigurationError("total capacity must be positive")
    if (fast < 0).any() or (fast > total).any():
        raise ConfigurationError("need 0 <= fast_bytes <= total_bytes")
    r = (fast + (total - fast) * p) / total
    return float(r) if r.ndim == 0 else r


def check_tier_prices(prices) -> np.ndarray:
    """Per-tier price factors, fastest first, as a float array.

    Tier 0 is the price reference (1.0); the others lie in (0, 1] and
    do not increase down the tiers.
    """
    prices = np.asarray(prices, dtype=np.float64)
    if not (prices.ndim == 1 and prices.size >= 2 and prices[0] == 1.0
            and prices[-1] > 0 and (np.diff(prices) <= 0).all()):
        raise ConfigurationError(
            "need one price factor per tier, fastest first: 1.0 for tier "
            f"0, then non-increasing within (0, 1]; got {prices}"
        )
    return prices


def tier_cost_factor(bytes_per_tier, prices) -> float:
    """Capacity-weighted cost of *bytes_per_tier* relative to all-tier-0,
    tier *k* at ``prices[k]`` (:func:`check_tier_prices`) per byte."""
    prices = check_tier_prices(prices)
    bytes_per_tier = np.asarray(bytes_per_tier, dtype=np.float64)
    if bytes_per_tier.shape != prices.shape:
        raise ConfigurationError(f"need one byte count per tier ({prices.size})")
    total = bytes_per_tier.sum()
    if total <= 0:
        raise ConfigurationError("placement holds no bytes")
    # Normalize before weighting: multiplying a subnormal byte count by a
    # sub-unit price underflows to zero and drags the mean below min(price).
    return float(((bytes_per_tier / total) * prices).sum())


def capacity_for_cost(
    r: float, total_bytes: float, p: float = DEFAULT_PRICE_FACTOR
) -> float:
    """Invert the model: FastMem bytes whose cost factor equals *r*."""
    _validate_p(p)
    if not p <= r <= 1:
        raise ConfigurationError(
            f"cost factor {r} outside the attainable range [{p}, 1]"
        )
    return total_bytes * (r - p) / (1 - p)


@dataclass(frozen=True)
class CostModel:
    """Convenience wrapper binding a price factor and a total capacity.

    Also carries the Table II anchor points: ``best_case`` (all FastMem,
    R = 1), ``worst_case`` (all SlowMem, R = p).
    """

    total_bytes: int
    p: float = DEFAULT_PRICE_FACTOR

    def __post_init__(self) -> None:
        _validate_p(self.p)
        if self.total_bytes <= 0:
            raise ConfigurationError("total capacity must be positive")

    def factor(self, fast_bytes):
        """R(p) for *fast_bytes* of FastMem (scalar or array)."""
        return cost_reduction_factor(fast_bytes, self.total_bytes, self.p)

    def fast_bytes_for(self, r: float) -> float:
        """FastMem capacity whose cost factor is *r*."""
        return capacity_for_cost(r, self.total_bytes, self.p)

    @property
    def best_case(self) -> float:
        """Cost factor with all data in FastMem (Table II row 1)."""
        return 1.0

    @property
    def worst_case(self) -> float:
        """Cost factor with all data in SlowMem (Table II row 3) = p."""
        return self.p

    def savings_percent(self, fast_bytes) -> float:
        """Percentage saved versus the FastMem-only system."""
        return (1.0 - self.factor(fast_bytes)) * 100.0
