"""Multi-tier sizing — Mnemo's model on a DRAM + NVM + Far system.

The paper sizes a two-component hybrid; future systems add a third,
even cheaper tier (CXL-attached or borrowed remote memory).  This
example generalises the consultant: per-tier baselines, a capacity-grid
sweep, the Pareto frontier, and the cheapest three-tier configuration
within a 10 % slowdown SLO — compared against the best two-tier one.

Run:  python examples/multitier_sizing.py
"""

import numpy as np

from repro.cost.model import DEFAULT_PRICE_FACTOR, FAR_PRICE_FACTOR
from repro.kvstore.profiles import REDIS_PROFILE
from repro.memsim.system import HybridMemorySystem
from repro.multitier import MultiTierAdvisor
from repro.ycsb import generate_trace, workload_by_name


def main() -> None:
    trace = generate_trace(workload_by_name("timeline"))
    total = int(trace.record_sizes.sum())

    system = HybridMemorySystem.dram_nvm_far()
    prices = (1.0, DEFAULT_PRICE_FACTOR, FAR_PRICE_FACTOR)
    print("tiers:", ", ".join(
        f"{node.name} ({node.latency_ns:.0f} ns, "
        f"{node.bandwidth_gbps:g} GB/s, price {price:.0%})"
        for node, price in zip(system.nodes, prices)
    ))

    advisor = MultiTierAdvisor(system, REDIS_PROFILE, prices)
    baselines = advisor.measure(trace)
    print("\nper-tier baselines (all data in one tier):")
    for node, run in zip(system.nodes, baselines.runs):
        print(f"  {node.name:<7}: {run.throughput_ops_s:>8,.0f} ops/s")

    fracs = np.linspace(0.01, 1.0, 20)
    grid = [
        [max(1, int(f0 * total)), max(1, int(f1 * total)), None]
        for f0 in fracs for f1 in fracs if f0 + f1 <= 1.0
    ]
    plans = advisor.sweep(trace, baselines, grid)
    frontier = advisor.pareto(plans)

    print(f"\nPareto frontier ({len(frontier)} of {len(plans)} plans, every 4th):")
    print(f"{'cost':>7} {'est ops/s':>11} {'DRAM':>6} {'NVM':>6} {'Far':>6}")
    for plan in frontier[::4]:
        d, nv, far = plan.tier_shares()
        print(f"{plan.cost_factor:>6.0%} "
              f"{plan.est_throughput_ops_s:>11,.0f} "
              f"{d:>6.0%} {nv:>6.0%} {far:>6.0%}")

    choice = advisor.cheapest_within_slo(plans, baselines, 0.10)
    d, nv, far = choice.tier_shares()
    print(f"\nthree-tier choice @10% SLO: cost {choice.cost_factor:.0%} "
          f"(DRAM {d:.0%} / NVM {nv:.0%} / Far {far:.0%})")

    # two-tier comparison (the paper's setting)
    two = MultiTierAdvisor(HybridMemorySystem.testbed(), REDIS_PROFILE,
                           prices[:2])
    two_baselines = two.measure(trace)
    two_grid = [[max(1, int(f * total)), None]
                for f in np.linspace(0.005, 1.0, 200)]
    two_choice = two.cheapest_within_slo(
        two.sweep(trace, two_baselines, two_grid), two_baselines, 0.10
    )
    print(f"two-tier choice  @10% SLO: cost {two_choice.cost_factor:.0%}")
    print(f"\nthe far tier absorbs cold data below the two-tier floor: "
          f"{two_choice.cost_factor - choice.cost_factor:+.1%} saved.")


if __name__ == "__main__":
    main()
