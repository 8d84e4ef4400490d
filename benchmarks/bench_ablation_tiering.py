"""Ablation — tiering-order design (Section IV's weight formula).

Compares FastMem-allocation orderings on the scrambled-zipfian
Trending-Preview workload (mixed record sizes make the size term in the
weight matter):

- first-touch (stand-alone Mnemo),
- accesses only (ignore sizes),
- accesses/size (MnemoT's weight — the literature's formula),
- 0/1 knapsack selection at a fixed capacity (greedy density).

Metric: estimated throughput at matched cost points, and requests
served from FastMem at a fixed 25 % capacity.
"""

import numpy as np

from repro.baselines import knapsack_tiering
from repro.core import EstimateEngine, PatternEngine
from repro.core.sensitivity import SensitivityEngine
from repro.kvstore import RedisLike

from common import emit, pct, table


def run(paper_traces, client):
    trace = paper_traces["trending_preview"]
    baselines = SensitivityEngine(RedisLike, client=client).measure(trace)

    touch = PatternEngine(mode="touch").analyze(trace)
    weight = PatternEngine(mode="weight").analyze(trace)

    accesses = weight.accesses_per_key
    acc_order = np.argsort(-accesses, kind="stable").astype(np.int64)
    acc_only = PatternEngine(mode="external").analyze(
        trace, external_order=acc_order
    )

    engine = EstimateEngine()
    curves = {
        "first-touch": engine.estimate(baselines, touch),
        "accesses-only": engine.estimate(baselines, acc_only),
        "accesses/size": engine.estimate(baselines, weight),
    }

    # fixed 25 % FastMem capacity: fraction of requests served fast
    cap = int(trace.record_sizes.sum() * 0.25)
    fast_requests = {}
    for name, curve in curves.items():
        k = int(np.searchsorted(curve.fast_bytes, cap, side="right")) - 1
        prefix = curve.order[:k]
        fast_requests[name] = accesses[prefix].sum() / accesses.sum()
    chosen = knapsack_tiering(accesses.astype(float), trace.record_sizes, cap)
    fast_requests["knapsack@25%"] = accesses[chosen].sum() / accesses.sum()

    return curves, fast_requests


def test_ablation_tiering_order(benchmark, paper_traces, bench_client):
    curves, fast_requests = benchmark.pedantic(
        run, args=(paper_traces, bench_client), rounds=1, iterations=1,
    )

    grid = [0.3, 0.5, 0.7, 0.9]
    rows = [
        (name, *(f"{curve.throughput_at_cost(r):,.0f}" for r in grid))
        for name, curve in curves.items()
    ]
    lines = table(["ordering", *(f"thr @cost {r}" for r in grid)], rows,
                  fmt="{:>16}")
    lines.append("")
    lines += table(
        ["ordering", "requests served fast @25% capacity"],
        [(n, pct(v)) for n, v in fast_requests.items()], fmt="{:>34}",
    )
    emit("ablation_tiering", lines)

    # the weight formula dominates first-touch at every matched cost
    for r in grid:
        assert (curves["accesses/size"].throughput_at_cost(r)
                >= curves["first-touch"].throughput_at_cost(r) - 1e-6)
    # with mixed sizes, dividing by size beats accesses-only at the
    # capacity-constrained point (small hot keys pack better)
    assert fast_requests["accesses/size"] >= fast_requests["accesses-only"]
    # greedy knapsack ~ the density order plus slack filling
    assert fast_requests["knapsack@25%"] >= fast_requests["accesses/size"] - 0.01
