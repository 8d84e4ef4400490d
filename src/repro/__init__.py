"""repro — a full reproduction of *Mnemo: Boosting Memory Cost Efficiency
in Hybrid Memory Systems* (Doudali & Gavrilovska, IPDPS-W 2019).

Mnemo is a memory capacity sizing and data tiering consultant for
in-memory key-value stores on hybrid (DRAM + NVM) memory systems.  This
package provides the consultant itself (:mod:`repro.core`) plus every
substrate the paper's evaluation needs, built from scratch:

- :mod:`repro.memsim` — the emulated hybrid-memory testbed (Table I);
- :mod:`repro.kvstore` — Redis/Memcached/DynamoDB-like store engines;
- :mod:`repro.ycsb` — YCSB-style workloads and the measuring client;
- :mod:`repro.pricing` — the cloud VM memory-cost analysis (Fig 1);
- :mod:`repro.cost` — the hybrid memory cost model (Table II);
- :mod:`repro.baselines` — comparator profiling methodologies (Table IV);
- :mod:`repro.analysis` — CDF/error/latency/curve utilities.

Quickstart::

    from repro import Mnemo, RedisLike
    from repro.ycsb import generate_trace, workload_by_name

    trace = generate_trace(workload_by_name("trending"))
    report = Mnemo(engine_factory=RedisLike).profile(trace)
    print(report.summary())
"""

from repro._lazy import attach

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = attach(__name__, {
    "core.mnemo": ["Mnemo", "ExternalTieringMnemo"],
    "core.mnemot": ["MnemoT"],
    "core.report": ["MnemoReport"],
    "core.estimate": ["EstimateCurve"],
    "core.slo": ["SizingChoice"],
    "core.sensitivity": ["PerformanceBaselines"],
    "memsim.system": ["HybridMemorySystem"],
    "kvstore.redislike": ["RedisLike"],
    "kvstore.memcachedlike": ["MemcachedLike"],
    "kvstore.dynamolike": ["DynamoLike"],
    "kvstore.server": ["HybridDeployment"],
    "ycsb.client": ["YCSBClient"],
    "ycsb.workload": ["Trace", "WorkloadSpec"],
    "ycsb.generator": ["generate_trace"],
    "ycsb.presets": ["workload_by_name", "TABLE_III_WORKLOADS"],
    "cost.model": ["CostModel", "cost_reduction_factor"],
    "guard.loop": ["GuardLoop"],
    "guard.validator": [
        "RecommendationValidator", "ValidationVerdict", "ErrorBudget",
    ],
    "guard.drift": ["DriftDetector"],
    "guard.margin": ["MarginPolicy"],
})
__all__.append("__version__")
