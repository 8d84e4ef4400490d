"""Grouped sweep planner speedup over per-cell pool dispatch.

Times the sweep shape the planner was built for — many split placements
of few workloads, a warm pool — two ways on the *same* runner settings:

- ``plan="cell"``: the legacy pool path, one task per grid cell.  Every
  task rebuilds a serial runner in the worker, re-reads the trace from
  the cache, builds a fresh deployment and measures through the
  per-deployment path;
- ``plan="grouped"``: the planner cuts each (workload, engine) group
  into a batch per worker, workers attach the trace zero-copy from the
  shared-memory plane and execute a whole batch through the batch
  kernel.

Both runners are warmed first on a disjoint set of split fractions, so
the pools are spun up, the worker memos are hot and every trace is
published/cached — the timed sweeps then measure steady-state dispatch,
not cold-start costs, and every timed result is computed fresh (cache
misses on both sides).  Results must be *bit-identical* across plans.

The summary JSON lands in ``benchmarks/out/`` and — full mode only —
at the repo root as ``BENCH_sweep.json``, whose committed copy records
the speedup floor ``make bench-sweep`` enforces.
``MNEMO_BENCH_SMOKE=1`` shrinks the sweep (fewer/downscaled workloads,
fewer splits) for the smoke target wired into ``make verify``; the
floor scales down accordingly.
"""

import os
import shutil
import time
from pathlib import Path

import numpy as np

from common import OUT_DIR, emit, table, write_summary

from repro.runner import ClientConfig, ExperimentRunner
from repro.ycsb.presets import TABLE_III_WORKLOADS

SMOKE = os.environ.get("MNEMO_BENCH_SMOKE", "") not in ("", "0")

#: Sweep shape: every Table III workload, a dozen split fractions each.
N_WORKLOADS = 3 if SMOKE else 5
N_SPLITS = 6 if SMOKE else 12
#: Accepted minimum grouped-over-cell speedup on the warm-pool sweep.
SPEEDUP_FLOOR = 2.0 if SMOKE else 3.0

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_sweep.json"
SCRATCH = OUT_DIR / "sweep_planner_caches"


def _workloads():
    picked = TABLE_III_WORKLOADS[:N_WORKLOADS]
    if SMOKE:
        picked = [w.scaled(n_keys=2_000, n_requests=5_000) for w in picked]
    return picked


def _specs(fracs):
    return ExperimentRunner.grid(
        _workloads(), engines=("redis",), placements=("split",),
        fast_fractions=tuple(fracs),
    )


def _bench_plan(plan):
    """Warm a runner under *plan*, then time the steady-state sweep."""
    cache_dir = SCRATCH / plan
    shutil.rmtree(cache_dir, ignore_errors=True)
    runner = ExperimentRunner(
        cache=str(cache_dir), client=ClientConfig(repeats=3, seed=7),
        plan=plan,
    )
    try:
        warm = runner.sweep(_specs([0.5]), workers=2)
        assert warm.ok, f"warm-up sweep failed under plan={plan!r}"
        timed_specs = _specs(np.linspace(0.05, 0.9, N_SPLITS).round(4))
        t0 = time.perf_counter()
        outcome = runner.sweep(timed_specs, workers=2)
        elapsed = time.perf_counter() - t0
        assert outcome.ok, f"timed sweep failed under plan={plan!r}"
        assert set(outcome.provenance) == {"computed"}, (
            f"timed sweep must compute fresh under plan={plan!r}, "
            f"got {set(outcome.provenance)}"
        )
        return list(outcome.results), elapsed, len(timed_specs)
    finally:
        runner.close()


def run():
    cell_results, t_cell, n_specs = _bench_plan("cell")
    grouped_results, t_grouped, _ = _bench_plan("grouped")
    assert grouped_results == cell_results, (
        "grouped planner diverged from per-cell dispatch"
    )
    shutil.rmtree(SCRATCH, ignore_errors=True)
    return {
        "mode": "smoke" if SMOKE else "full",
        "n_workloads": N_WORKLOADS,
        "splits_per_workload": N_SPLITS,
        "n_specs": n_specs,
        "workers": 2,
        "cell_s": round(t_cell, 3),
        "grouped_s": round(t_grouped, 3),
        "speedup": round(t_cell / t_grouped, 1),
        "bit_identical": True,
        "floors": {"grouped_speedup": SPEEDUP_FLOOR},
    }


def test_sweep_planner(benchmark):
    r = benchmark.pedantic(run, rounds=1, iterations=1)

    write_summary("sweep_planner", r, RESULT_PATH)

    emit("sweep_planner", table(
        ["plan", "wall-clock", "notes"],
        [
            ("cell", f"{r['cell_s']:.2f}s",
             f"{r['n_specs']} pool tasks"),
            ("grouped", f"{r['grouped_s']:.2f}s",
             f"{r['speedup']:.1f}x, bit-identical, "
             f"{r['n_workloads']} groups"),
        ],
    ))

    assert r["speedup"] >= SPEEDUP_FLOOR, (
        f"grouped planner speedup {r['speedup']:.1f}x fell below the "
        f"{SPEEDUP_FLOOR:.1f}x floor"
    )
