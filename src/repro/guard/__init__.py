"""repro.guard — closed-loop SLO guardrails for Mnemo recommendations.

A recommendation is an unguarded analytical prediction until something
checks it.  This package supplies the three cooperating robustness
layers (see ``docs/GUARD.md``):

- :mod:`repro.guard.validator` — replay the chosen split (and its ±
  one-increment neighbours) through the full simulator, compare against
  an error budget, and fall back to the nearest validating split on
  rejection;
- :mod:`repro.guard.drift` — streaming detectors for hotness
  divergence, key churn and object-size shift between the planning
  trace and the live stream, folded into replan advice;
- :mod:`repro.guard.margin` — confidence-aware SLO headroom so
  recommendations built on estimated or fault-flagged baselines (PR 2)
  carry a safety margin;
- :mod:`repro.guard.loop` — the closed loop that runs all three and
  emits CI-friendly exit codes (the ``mnemo guard`` subcommand).
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "drift": [
        "DriftDetector", "DriftSignal", "DriftThresholds", "ReplanAdvice",
        "WorkloadDriftReport", "detect_drift", "hot_set_churn",
        "js_divergence", "kl_divergence", "rotate_hot_set", "size_shift",
    ],
    "loop": ["GuardLoop", "GuardOutcome"],
    "margin": ["DEFAULT_MARGIN_POLICY", "MarginPolicy"],
    "validator": [
        "ErrorBudget", "FallbackResult", "PointCheck",
        "RecommendationValidator", "ValidationVerdict",
    ],
})
