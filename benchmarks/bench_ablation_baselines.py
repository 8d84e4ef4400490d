"""Ablation — how the baselines are obtained (design choice, Section V-B).

Mnemo measures *both* extreme configurations.  The alternatives:

- X-Mem-like device-only baselines (microbenchmarks) miss the engine's
  CPU component entirely and produce wildly wrong absolute estimates;
- Tahoe-like ML inference of the FastMem baseline is close but adds
  error on top of the measured-slow run, and its training data costs
  many workload executions.

This bench quantifies the estimate error of each choice on Trending.
"""

import numpy as np

from repro.baselines import (
    InstrumentedProfiler,
    MLBaselineProfiler,
    train_fast_baseline_model,
)
from repro.core import Mnemo
from repro.kvstore import RedisLike
from repro.ycsb.distributions import DistributionSpec
from repro.ycsb.sizes import SizeModel
from repro.ycsb.workload import WorkloadSpec

from common import emit, pct, table


def training_specs():
    dists = ["zipfian", "hotspot", "uniform", "scrambled_zipfian", "latest"]
    return [
        WorkloadSpec(
            name=f"abl_train_{i}",
            distribution=DistributionSpec(name=dists[i % len(dists)]),
            read_fraction=[1.0, 0.8, 0.6][i % 3],
            size_model=SizeModel(
                name=f"s{i}", median_bytes=[100_000, 20_000, 60_000][i % 3],
                sigma=0.2,
            ),
            n_keys=2_000,
            n_requests=20_000,
            seed=500 + i,
        )
        for i in range(6)
    ]


def run(paper_traces, redis_reports, client):
    trace = paper_traces["trending"]
    real = redis_reports["trending"].baselines

    # device-only prediction of the fast baseline
    xmem = InstrumentedProfiler(RedisLike, client=client)
    micro = xmem.run_microbenchmarks()
    device_fast = xmem.predict_runtime_ns(trace, micro, "fast")

    # ML-inferred fast baseline
    model = train_fast_baseline_model(training_specs(), RedisLike,
                                      client=client)
    tahoe = MLBaselineProfiler(model, RedisLike, client=client)
    ml_fast = tahoe.profile(trace).baselines.fast.runtime_ns

    truth = real.fast_runtime_ns
    return {
        "mnemo (measured)": (truth, 0.0),
        "tahoe-like (ML inferred)": (ml_fast, abs(ml_fast - truth) / truth),
        "x-mem-like (device only)": (device_fast,
                                     abs(device_fast - truth) / truth),
    }


def test_ablation_baseline_acquisition(benchmark, paper_traces,
                                       redis_reports, bench_client):
    results = benchmark.pedantic(
        run, args=(paper_traces, redis_reports, bench_client),
        rounds=1, iterations=1,
    )

    rows = [
        (name, f"{runtime / 1e9:.2f}", pct(err))
        for name, (runtime, err) in results.items()
    ]
    emit("ablation_baselines", table(
        ["baseline source", "FastMem runtime (s)", "error vs measured"],
        rows, fmt="{:>26}",
    ) + ["design takeaway: measuring both baselines is what makes the "
         "simple model near-exact"])

    _, ml_err = results["tahoe-like (ML inferred)"]
    _, dev_err = results["x-mem-like (device only)"]
    assert ml_err < 0.10        # usable but not exact
    assert dev_err > 0.5        # device-only misses the CPU component
