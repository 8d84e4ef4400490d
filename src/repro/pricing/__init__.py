"""Cloud VM pricing analysis (paper Section I, Figure 1)."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "catalog": [
        "CATALOGS", "MEMORY_OPTIMIZED_FAMILIES", "VMInstance", "catalog_for",
        "provider_catalog", "provider_families", "providers",
    ],
    "regression": ["FitResult", "fit_unit_costs"],
    "vmcost": ["memory_cost_fractions", "memory_fraction_summary"],
})
