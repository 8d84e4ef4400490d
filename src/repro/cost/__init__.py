"""Memory-system cost model (paper Section II, Table II)."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "model": [
        "DEFAULT_PRICE_FACTOR", "FAR_PRICE_FACTOR", "CostModel",
        "capacity_for_cost", "check_tier_prices", "cost_reduction_factor",
        "tier_cost_factor",
    ],
})
