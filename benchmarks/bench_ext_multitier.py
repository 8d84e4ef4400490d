"""Extension — Mnemo's model on a three-tier future system.

Generalises the sizing question to DRAM + NVM + a far tier (CXL-style:
500 ns, 0.9 GB/s, 8 % of the DRAM per-byte price).  Sweeps a grid of
(DRAM, NVM) capacity pairs on the Timeline workload (whose zipfian cold
tail is what a far tier is for), reports the Pareto frontier, and
compares the 10 %-SLO choice against the best two-tier configuration —
the far tier absorbs the coldest data at 8 % of the DRAM price, beating
the best two-tier sizing outright.
"""

import numpy as np

from repro.cost.model import DEFAULT_PRICE_FACTOR, FAR_PRICE_FACTOR
from repro.kvstore.profiles import REDIS_PROFILE
from repro.memsim.system import HybridMemorySystem
from repro.multitier import MultiTierAdvisor
from repro.ycsb.client import YCSBClient

from common import emit, pct, table


def run(paper_traces):
    trace = paper_traces["timeline"]
    total = int(trace.record_sizes.sum())
    advisor = MultiTierAdvisor(
        HybridMemorySystem.dram_nvm_far(), REDIS_PROFILE,
        (1.0, DEFAULT_PRICE_FACTOR, FAR_PRICE_FACTOR),
        YCSBClient(repeats=3, noise_sigma=0.01, seed=31),
    )
    baselines = advisor.measure(trace)

    fracs = np.linspace(0.01, 1.0, 25)
    grid = [
        [max(1, int(f0 * total)), max(1, int(f1 * total)), None]
        for f0 in fracs for f1 in fracs if f0 + f1 <= 1.0 + 1e-9
    ]
    plans = advisor.sweep(trace, baselines, grid)
    frontier = advisor.pareto(plans)
    choice = advisor.cheapest_within_slo(plans, baselines, 0.10)

    # the two-tier equivalent at the same SLO
    two_tier = MultiTierAdvisor(
        HybridMemorySystem.testbed(), REDIS_PROFILE,
        (1.0, DEFAULT_PRICE_FACTOR),
        YCSBClient(repeats=3, noise_sigma=0.01, seed=32),
    )
    two_baselines = two_tier.measure(trace)
    two_grid = [[max(1, int(f * total)), None] for f in
                np.linspace(0.005, 1.0, 200)]
    two_plans = two_tier.sweep(trace, two_baselines, two_grid)
    two_choice = two_tier.cheapest_within_slo(two_plans, two_baselines, 0.10)

    # estimate-accuracy spot check on the chosen plan
    measured = advisor.validate(trace, choice)
    err = abs(measured.runtime_ns - choice.est_runtime_ns) / measured.runtime_ns
    return baselines, frontier, choice, two_choice, err


def test_ext_multitier(benchmark, paper_traces):
    baselines, frontier, choice, two_choice, err = benchmark.pedantic(
        run, args=(paper_traces,), rounds=1, iterations=1,
    )

    shown = frontier[:: max(1, len(frontier) // 20)]
    rows = [
        (pct(p.cost_factor),
         f"{p.est_throughput_ops_s:,.0f}",
         *(pct(s) for s in p.tier_shares()))
        for p in shown
    ]
    lines = table(
        ["cost", "est ops/s", "DRAM share", "NVM share", "Far share"], rows,
    )
    lines += [
        "",
        f"10%-SLO choice (3 tiers): cost {pct(choice.cost_factor)}, "
        f"shares DRAM/NVM/Far = "
        + "/".join(pct(s) for s in choice.tier_shares()),
        f"10%-SLO choice (2 tiers): cost {pct(two_choice.cost_factor)}",
        f"estimate error on the chosen plan: {err:.4%}",
    ]
    emit("ext_multitier", lines)

    # the frontier is non-trivial and the 3-tier SLO choice undercuts
    # the 2-tier one (the far tier is cheaper than NVM for cold data)
    assert len(frontier) >= 3
    assert choice.cost_factor < two_choice.cost_factor - 0.01
    assert err < 0.01
    # per-tier baselines are strictly ordered
    runtimes = [r.runtime_ns for r in baselines.runs]
    assert runtimes == sorted(runtimes)
