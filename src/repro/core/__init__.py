"""Mnemo — the memory sizing and data tiering consultant (paper core).

The four engines of Figure 6:

- :class:`~repro.core.sensitivity.SensitivityEngine` — real baselines by
  workload execution;
- :class:`~repro.core.pattern.PatternEngine` — Req(keys) and the tiering
  order;
- :class:`~repro.core.estimate.EstimateEngine` — the analytic sweep over
  incremental FastMem sizings;
- :class:`~repro.core.placement.PlacementEngine` — static key placement.

Facades: :class:`~repro.core.mnemo.Mnemo` (stand-alone, Fig 2a),
:class:`~repro.core.mnemo.ExternalTieringMnemo` (Fig 2b) and
:class:`~repro.core.mnemot.MnemoT` (Fig 2c).
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "advice": ["Advice", "AdviceRequest", "advise"],
    "descriptor": ["WorkloadDescriptor"],
    "drift": [
        "DriftReport", "analyze_drift", "drift_score",
        "static_placement_regret",
    ],
    "dynamic": ["RetieringOutcome", "simulate_periodic_retiering"],
    "estimate": ["EstimateCurve", "EstimateEngine"],
    "mnemo": ["ExternalTieringMnemo", "Mnemo"],
    "mnemot": ["MnemoT"],
    "pattern": ["KeyAccessPattern", "PatternEngine"],
    "placement": ["PlacementEngine"],
    "report": ["MnemoReport"],
    "sensitivity": [
        "PerformanceBaselines", "SensitivityEngine", "estimate_counterpart",
    ],
    "slo": [
        "DEFAULT_MAX_SLOWDOWN", "SizingChoice", "choice_at",
        "min_cost_for_slowdown",
    ],
    "validate": [
        "MeasuredPoint", "estimate_errors", "measure_curve", "prefix_counts",
    ],
    "whatif": [
        "DeviceScenario", "device_sensitivity", "price_sensitivity",
        "recost_curve",
    ],
})
