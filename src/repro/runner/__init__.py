"""Experiment runner: fingerprinting, caching, and resilient grids.

The runner makes profiling cheap in the way the paper demands (Table IV:
minutes, not instrumentation slowdowns) by never recomputing what has
already been measured and by measuring a grid one batch per (workload,
engine) group:

- :mod:`repro.runner.fingerprint` — canonical SHA-256 fingerprints over
  everything that determines an experiment's outcome;
- :mod:`repro.runner.cache` — the entry codecs of the
  content-addressed store (:mod:`repro.store`) for results, generated
  traces and LLC hit masks;
- :mod:`repro.runner.caching` — the store-probing batch every client
  measures through (``YCSBClient(cache=...)`` gives a client a store);
- :mod:`repro.runner.spec` / :mod:`repro.runner.outcome` — the value
  types a sweep takes (specs, client config) and returns (outcome,
  failure report, retry policy);
- :mod:`repro.runner.executor` — the one batch executor;
- :mod:`repro.runner.grid` — the sweep: workload x store x placement
  grids in process, with retries and resumable journals.

See ``docs/RUNNER.md`` for the fingerprint scheme, cache layout and the
determinism guarantees.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "cache": [
        "SCHEMA_VERSION", "CacheStats", "CacheVerifyReport", "ensure_cache",
    ],
    "caching": ["PlacementBatch", "hitmask_fingerprint"],
    "fingerprint": [
        "array_digest", "canonicalize", "digest", "experiment_fingerprint",
        "trace_fingerprint", "workload_fingerprint",
    ],
    "grid": ["ExperimentRunner"],
    "outcome": [
        "NON_RETRYABLE", "ExperimentFailure", "ExperimentMeta",
        "FailureReport", "GridOutcome", "RetryPolicy",
    ],
    "spec": [
        "PLACEMENTS", "ClientConfig", "ExperimentSpec", "split_fast_keys",
    ],
})
