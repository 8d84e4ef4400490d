"""Experiment runner: fingerprinting, caching, and parallel grids.

The runner makes profiling cheap in the way the paper demands (Table IV:
minutes, not instrumentation slowdowns) by never recomputing what has
already been measured and by fanning grids out over processes:

- :mod:`repro.runner.fingerprint` — canonical SHA-256 fingerprints over
  everything that determines an experiment's outcome;
- :mod:`repro.runner.cache` — the checksummed entry codecs of the
  content-addressed store (:mod:`repro.store`) for results, generated
  traces and LLC hit masks;
- :mod:`repro.runner.caching` — a drop-in caching YCSB client;
- :mod:`repro.runner.spec` / :mod:`repro.runner.outcome` — the value
  types a sweep takes (specs, client config) and returns (outcome,
  failure report, retry policy);
- :mod:`repro.runner.executor` — the one batch executor, run in process
  and in pool workers alike;
- :mod:`repro.runner.grid` — the coordinator: workload x store x
  placement grids over a process pool, bit-identical to serial
  execution.

See ``docs/RUNNER.md`` for the fingerprint scheme, cache layout and the
determinism guarantees.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "cache": [
        "SCHEMA_VERSION", "CacheStats", "CacheVerifyReport", "ensure_cache",
    ],
    "caching": ["CachingClient", "PlacementBatch", "hitmask_fingerprint"],
    "fingerprint": [
        "array_digest", "canonicalize", "digest", "experiment_fingerprint",
        "trace_fingerprint", "workload_fingerprint",
    ],
    "grid": ["ExperimentRunner", "default_workers"],
    "outcome": [
        "NON_RETRYABLE", "ExperimentFailure", "ExperimentMeta",
        "FailureReport", "GridOutcome", "RetryPolicy",
    ],
    "shm": ["SharedTraceHandle", "TracePlane"],
    "spec": [
        "PLACEMENTS", "ClientConfig", "ExperimentSpec", "split_fast_keys",
    ],
})
