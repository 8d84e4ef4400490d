"""Comparator profiling methodologies (paper Section V-B, Table IV).

Existing tiering solutions differ from MnemoT in how they prepare
input, obtain performance baselines, and calculate tiering weights:

- :mod:`~repro.baselines.instrumented` — an X-Mem-style profiler that
  monitors every memory access through binary instrumentation (up to
  40x execution overhead) and derives latencies from microbenchmarks;
- :mod:`~repro.baselines.mlmodel` — a Tahoe-style profiler that runs
  only the SlowMem baseline and infers the FastMem baseline with a
  pre-trained machine-learning model (cheap inference, expensive
  training-data collection);
- :mod:`~repro.baselines.knapsack` — the 0/1 knapsack formulation of
  fixed-capacity tiering used by several existing solutions.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "instrumented": ["InstrumentedProfiler", "ProfilingCost"],
    "knapsack": ["knapsack_tiering"],
    "mlmodel": ["MLBaselineProfiler", "train_fast_baseline_model"],
})
