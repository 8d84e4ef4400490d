"""Quickstart — profile a workload and pick a cost-efficient sizing.

Runs stand-alone Mnemo (Fig 2a) on the paper's Trending workload
against the Redis-like store, prints the profiling summary, writes the
3-column CSV the paper describes, and realises the 10 %-SLO sizing as
an actual two-server deployment.

Run:  python examples/quickstart.py
"""

from pathlib import Path

from repro import Mnemo, RedisLike
from repro.ycsb import generate_trace, workload_by_name


def main() -> None:
    # 1. the workload: 10,000 keys / 100,000 requests, hotspot reads
    trace = generate_trace(workload_by_name("trending"))

    # 2. profile it: two real baseline executions + the analytic sweep
    mnemo = Mnemo(engine_factory=RedisLike)
    report = mnemo.profile(trace)
    print(report.summary())

    # 3. the paper's CSV output: key id, estimated throughput, cost factor
    out = Path("examples/output/mnemo_trending.csv")
    report.write_csv(out)
    print(f"\nwrote estimate curve to {out} ({report.curve.n_keys} rows)")

    # 4. pick the cheapest sizing within 10 % of FastMem-only throughput
    choice = report.choose(max_slowdown=0.10)
    print(
        f"\nchosen sizing: {choice.n_fast_keys:,} keys "
        f"({choice.fast_bytes / 1e6:.0f} MB) in FastMem\n"
        f"  FastMem share   : {choice.capacity_ratio:.0%}\n"
        f"  memory cost     : {choice.cost_factor:.0%} of FastMem-only\n"
        f"  expected slowdown: {choice.slowdown:.1%}"
    )

    # 5. statically place the key-value pairs on the two servers
    deployment = mnemo.place(report, choice)
    print(
        f"\ndeployed: {int(deployment.fast_mask.sum()):,} keys on "
        f"{deployment.profile.name}@{deployment.system.fast.name}, "
        f"{int((~deployment.fast_mask).sum()):,} keys on "
        f"{deployment.profile.name}@{deployment.system.slow.name}"
    )


if __name__ == "__main__":
    main()
