"""Analysis utilities: CDFs, error statistics, latency percentiles, curves."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "asciiplot": ["render_curve", "render_estimate"],
    "bootstrap": ["BootstrapCI", "bootstrap_ci"],
    "cdf": ["empirical_cdf", "key_space_cdf", "size_cdf"],
    "curves": ["curve_knee", "interpolate_curve", "relative_curve"],
    "errors": ["BoxplotStats", "boxplot_stats", "percentage_error"],
    "latency": ["latency_summary", "tail_percentiles"],
})
