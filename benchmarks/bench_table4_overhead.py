"""Table IV — profiling-overhead comparison.

Runs the three profiling methodologies on the Trending workload and
compares their end-to-end profiling time in simulated seconds:

- MnemoT: two real workload executions + instantaneous weights;
- X-Mem-like: device microbenchmarks + a ~40x instrumented execution
  (plus the one-off source-instrumentation effort);
- Tahoe-like: training-data collection (both baselines on every
  training workload) + one measured SlowMem run + inference.
"""

import numpy as np

from repro.baselines import (
    InstrumentedProfiler,
    MLBaselineProfiler,
    train_fast_baseline_model,
)
from repro.core import MnemoT
from repro.kvstore import RedisLike
from repro.units import ns_to_s
from repro.ycsb.distributions import DistributionSpec
from repro.ycsb.sizes import SizeModel
from repro.ycsb.workload import WorkloadSpec

from common import emit, table


def training_specs():
    dists = ["zipfian", "hotspot", "uniform", "scrambled_zipfian", "latest"]
    return [
        WorkloadSpec(
            name=f"table4_train_{i}",
            distribution=DistributionSpec(name=dists[i % len(dists)]),
            read_fraction=[1.0, 0.8, 0.5][i % 3],
            size_model=SizeModel(
                name=f"s{i}", median_bytes=[100_000, 10_000, 50_000][i % 3],
                sigma=0.2,
            ),
            n_keys=2_000,
            n_requests=20_000,
            seed=400 + i,
        )
        for i in range(6)
    ]


def run_comparison(paper_traces, bench_client):
    trace = paper_traces["trending"]

    # MnemoT: both baselines are real runs; weights are free
    mnemot = MnemoT(engine_factory=RedisLike, client=bench_client)
    report = mnemot.profile(trace)
    mnemot_cost = (report.baselines.fast.runtime_ns
                   + report.baselines.slow.runtime_ns)

    # X-Mem-like
    xmem = InstrumentedProfiler(RedisLike, client=bench_client)
    xmem_cost = xmem.profile(trace).cost

    # Tahoe-like
    model = train_fast_baseline_model(
        training_specs(), RedisLike, client=bench_client,
    )
    tahoe = MLBaselineProfiler(model, RedisLike, client=bench_client)
    tahoe_cost = tahoe.profile(trace).cost

    return mnemot_cost, xmem_cost, tahoe_cost


def test_table4_profiling_overhead(benchmark, paper_traces, bench_client):
    mnemot_ns, xmem, tahoe = benchmark.pedantic(
        run_comparison, args=(paper_traces, bench_client),
        rounds=1, iterations=1,
    )

    rows = [
        ("MnemoT", "workload descriptor only",
         f"{ns_to_s(mnemot_ns):.1f}", "0.0", f"{ns_to_s(mnemot_ns):.1f}"),
        ("X-Mem-like", "custom alloc API (source mod)",
         f"{ns_to_s(xmem.baselines_ns):.1f}",
         f"{ns_to_s(xmem.tiering_ns):.1f}",
         f"{ns_to_s(xmem.total_ns - xmem.input_prep_ns):.1f}"),
        ("Tahoe-like", "training data collection",
         f"{ns_to_s(tahoe.baselines_ns):.1f}",
         f"{ns_to_s(tahoe.tiering_ns):.1f}",
         f"{ns_to_s(tahoe.total_ns):.1f}"),
    ]
    emit("table4_overhead", table(
        ["methodology", "input preparation", "baselines (s)",
         "tiering (s)", "total (s)"], rows, fmt="{:>28}",
    ) + ["X-Mem-like excludes the ~30 min one-off source-instrumentation "
         "effort from the total shown",
         "paper: MnemoT has the lowest overhead in every profiling step"])

    # MnemoT is the cheapest methodology end to end
    assert mnemot_ns < xmem.baselines_ns + xmem.tiering_ns
    assert mnemot_ns < tahoe.total_ns
    # instrumented tiering alone dwarfs MnemoT's whole pipeline (~40x/2)
    assert xmem.tiering_ns > 10 * mnemot_ns
