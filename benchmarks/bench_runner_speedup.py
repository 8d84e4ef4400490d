"""Runner speedup — caching and parallel grids vs the serial path.

Times the Fig-9-style grid (5 Table III workloads x 3 stores, FastMem
and SlowMem baselines each) four ways:

- serial, uncached (the pre-runner baseline path);
- cold store, serial (adds fingerprinting + store writes);
- cold store, parallel (``default_workers()`` processes);
- warm store (a rerun recalling every result).

All four must produce bit-identical results — the runner's core
guarantee — and the wall-clocks are written as JSON to
``benchmarks/out/runner_speedup.json`` so future PRs can track the
perf trajectory.  The >= 3x parallel acceptance bound is only asserted
on machines with >= 4 CPUs; single-core CI still checks determinism
and the warm-cache bound.
"""

import json
import os
import shutil
import tempfile
import time

from common import OUT_DIR, emit, table

from repro.runner import ClientConfig, ExperimentRunner, default_workers
from repro.ycsb import TABLE_III_WORKLOADS

GRID_WORKERS = 4


def _grid():
    return ExperimentRunner.grid(
        TABLE_III_WORKLOADS,
        engines=("redis", "memcached", "dynamodb"),
        placements=("fast", "slow"),
    )


def _timed(runner, specs, workers):
    start = time.perf_counter()
    results = runner.run_grid(specs, workers=workers)
    return results, time.perf_counter() - start


def run():
    specs = _grid()
    config = ClientConfig(repeats=3, noise_sigma=0.01, seed=2019)
    cache_dir = tempfile.mkdtemp(prefix="mnemo-bench-cache-")
    store = os.path.join(cache_dir, "store.db")
    try:
        serial, t_serial = _timed(
            ExperimentRunner(cache=None, client=config), specs, 1
        )
        workers = min(GRID_WORKERS, default_workers())
        cold, t_cold = _timed(
            ExperimentRunner(cache=store, client=config), specs, workers
        )
        warm, t_warm = _timed(
            ExperimentRunner(cache=store, client=config), specs, 1
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "specs": specs,
        "serial": serial, "cold": cold, "warm": warm,
        "t_serial": t_serial, "t_cold": t_cold, "t_warm": t_warm,
        "workers": workers,
    }


def test_runner_speedup(benchmark):
    r = benchmark.pedantic(run, rounds=1, iterations=1)

    # the core guarantee: schedule and caching never touch the numbers
    assert r["serial"] == r["cold"], "parallel grid diverged from serial"
    assert r["serial"] == r["warm"], "cached results diverged from fresh"

    # a warm rerun must be almost free
    assert r["t_warm"] < 0.10 * r["t_cold"], (
        f"warm rerun took {r['t_warm']:.2f}s vs cold {r['t_cold']:.2f}s"
    )

    parallel_speedup = r["t_serial"] / r["t_cold"]
    if (os.cpu_count() or 1) >= GRID_WORKERS:
        assert parallel_speedup >= 3.0, (
            f"parallel cold run only {parallel_speedup:.2f}x over serial"
        )

    payload = {
        "grid_cells": len(r["specs"]),
        "workers": r["workers"],
        "serial_uncached_s": round(r["t_serial"], 3),
        "cold_parallel_s": round(r["t_cold"], 3),
        "warm_serial_s": round(r["t_warm"], 3),
        "parallel_speedup": round(parallel_speedup, 2),
        "warm_over_cold": round(r["t_warm"] / r["t_cold"], 4),
        "cpu_count": os.cpu_count(),
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "runner_speedup.json").write_text(
        json.dumps(payload, indent=2)
    )

    emit("runner_speedup", table(
        ["path", "wall-clock", "notes"],
        [
            ("serial uncached", f"{r['t_serial']:.2f}s",
             f"{len(r['specs'])} cells"),
            ("cold + parallel", f"{r['t_cold']:.2f}s",
             f"{r['workers']} workers"),
            ("warm cache", f"{r['t_warm']:.2f}s",
             f"{payload['warm_over_cold']:.1%} of cold"),
        ],
        fmt="{:>16}",
    ) + [f"results bit-identical across all paths; JSON at "
         f"benchmarks/out/runner_speedup.json"])
