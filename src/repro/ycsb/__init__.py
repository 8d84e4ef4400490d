"""YCSB-like workload generation and client.

Reimplements the parts of the Yahoo! Cloud Serving Benchmark the paper
uses (Section II, "Client Configuration" / "Workloads"):

- request-key distributions (:mod:`~repro.ycsb.distributions`): zipfian,
  scrambled zipfian, hotspot, latest, uniform, sequential;
- record-size models for social-media data (:mod:`~repro.ycsb.sizes`);
- workload specs and deterministic trace generation
  (:mod:`~repro.ycsb.workload`, :mod:`~repro.ycsb.generator`);
- the five custom Table III workloads (:mod:`~repro.ycsb.presets`);
- a closed-loop client that routes requests across the Fast/Slow server
  pair and measures throughput/latency (:mod:`~repro.ycsb.client`);
- workload downsampling via random request eviction
  (:mod:`~repro.ycsb.sampling`).
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "adapters": ["from_requests", "load_keyed_csv"],
    "client": ["RunResult", "YCSBClient"],
    "distributions": ["DistributionSpec", "key_probabilities", "sample_keys"],
    "generator": ["generate_trace"],
    "presets": ["TABLE_III_WORKLOADS", "workload_by_name"],
    "sampling": ["downsample"],
    "sizes": ["SIZE_MODELS", "SizeModel", "record_sizes"],
    "synthesis": ["TraceCharacterisation", "fit_trace", "synthesize"],
    "trace_io": [
        "load_trace_csv", "load_trace_npz", "save_trace_csv",
        "save_trace_npz",
    ],
    "workload": ["Trace", "WorkloadSpec"],
})
