"""Analytic fast-path and mixed-size-LRU gates.

Times a multi-split placement sweep over every Table III preset — the
shape every sensitivity sweep, validation replay and drift drill has —
two ways:

- simulate: one ``execute_placements`` call over all splits;
- analytic: closed-form :func:`predict_placement` per split (approximate
  by design; its runtime error against the simulator is recorded).

The analytic path must stay inside the 5% runtime envelope on every
preset.  Wall-clocks are best-of-N and the summary JSON is written to
``benchmarks/out/`` and — full mode only — to ``BENCH_kernel.json`` at
the repo root, where the committed copy records the floors
``make bench-kernel`` enforces.  ``MNEMO_BENCH_SMOKE=1`` shrinks the
sweep for the smoke target.  (The batch kernel's own cost is tracked by
``benchmarks/perf``: ``memsim.kernel.ns_per_sim_request``.)

The mixed-size vectorized LRU is timed in the regime its capacity-fit
gate engages in (working set fits the cache, no evictions) and gated at
a >= 1.0x floor: the gate's whole point is that the vector path only
runs where it wins, so parity-or-better is an invariant, not a hope.
An eviction-regime parity point (both sides on the dict replay) is
recorded alongside to document the gate's cost when it says no.
"""

import os
import time
from pathlib import Path

import numpy as np

from common import emit, table, write_summary

import repro.memsim.cache as cache_mod
from repro.kvstore.redislike import RedisLike
from repro.memsim.analytic import predict_placement
from repro.memsim.cache import LLCModel
from repro.memsim.system import HybridMemorySystem
from repro.ycsb.client import YCSBClient
from repro.ycsb.generator import generate_trace
from repro.ycsb.presets import TABLE_III_WORKLOADS, workload_by_name

SMOKE = os.environ.get("MNEMO_BENCH_SMOKE", "") not in ("", "0")

#: Accepted maximum analytic runtime error vs the simulator.
ANALYTIC_ERR_CEILING = 0.05
#: Accepted minimum mixed-size LRU speedup where the fit gate engages.
MIXED_LRU_FLOOR = 1.0

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_kernel.json"


def _best_of(fn, rounds):
    best, out = float("inf"), None
    for _ in range(rounds):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def _sweep_masks(n_keys, n_placements, seed=0):
    rng = np.random.default_rng(seed)
    masks = np.zeros((n_placements, n_keys), dtype=bool)
    for i in range(n_placements):
        n_fast = (i * n_keys) // n_placements
        masks[i, rng.choice(n_keys, n_fast, replace=False)] = True
    return masks


def _bench_analytic():
    """Sweep every preset across splits: batch simulate vs closed form.

    Both sides produce the same work product — one ``RunResult`` per
    (preset, split) — so the wall-clocks compare like for like.  The
    reuse-time LLC solve is memoized per trace, exactly as the
    simulator memoizes its LLC hit mask.
    """
    system = HybridMemorySystem.testbed()
    profile = RedisLike(system.fast, system.slow).profile
    n_splits = 4 if SMOKE else 12
    worst_err = 0.0
    t_sim = t_ana = 0.0
    for w in TABLE_III_WORKLOADS:
        if SMOKE:
            w = w.scaled(n_keys=2_000, n_requests=5_000)
        tr = generate_trace(w.with_seed(2))
        masks = _sweep_masks(tr.n_keys, n_splits, seed=2)
        c = YCSBClient(repeats=3, seed=9, use_llc=True)
        sims, t = _best_of(
            lambda: c.execute_placements(tr, masks, profile, system), 2
        )
        t_sim += t
        anas, t = _best_of(
            lambda: [
                predict_placement(tr, profile, system, m, c) for m in masks
            ],
            2,
        )
        t_ana += t
        for ana, sim in zip(anas, sims):
            worst_err = max(
                worst_err,
                abs(ana.runtime_ns - sim.runtime_ns) / sim.runtime_ns,
            )
    return {
        "presets": len(TABLE_III_WORKLOADS),
        "splits_per_preset": n_splits,
        "simulate_s": round(t_sim, 3),
        "analytic_s": round(t_ana, 3),
        "speedup_vs_batch_simulate": round(t_sim / t_ana, 1),
        "worst_runtime_error": round(worst_err, 5),
    }


def _mixed_lru_pair(tr, cap):
    """(default-path mask & time, forced-sequential mask & time) at *cap*."""
    def default_path():
        return LLCModel(capacity_bytes=cap).process(
            tr.keys, tr.request_sizes
        )

    def sequential():
        original = cache_mod.lru_hit_mask_mixed_size
        cache_mod.lru_hit_mask_mixed_size = lambda *a, **kw: None
        try:
            return LLCModel(capacity_bytes=cap).process(
                tr.keys, tr.request_sizes
            )
        finally:
            cache_mod.lru_hit_mask_mixed_size = original

    fast_mask, t_fast = _best_of(default_path, 3)
    slow_mask, t_slow = _best_of(sequential, 3)
    assert np.array_equal(fast_mask, slow_mask), (
        "mixed-size LRU fast path diverged from the sequential model"
    )
    return t_fast, t_slow


def _bench_mixed_lru():
    """Mixed-size LRU in the regime the vector path engages in — gated.

    The capacity-fit gate (`cold_working_set_bytes`) only routes a trace
    to the vectorized path when its touched working set fits the cache,
    so the gated measurement uses a capacity that holds the whole
    dataset (every sweep with a generously sized LLC, and the analytic
    estimator's reuse solve, live here).  An eviction-regime point is
    recorded too: there both sides take the dict replay, so the ratio
    documents that the gate costs ~nothing when it says no.
    """
    spec = workload_by_name("trending")
    if SMOKE:
        spec = spec.scaled(n_keys=2_000, n_requests=10_000)
    tr = generate_trace(spec.with_seed(3))
    cap_fit = int(tr.record_sizes.sum())  # working set fits: gate engages
    cap_evict = int(tr.record_sizes.sum() * 0.2)  # real evictions: dict path

    t_fast, t_slow = _mixed_lru_pair(tr, cap_fit)
    t_gate, t_dict = _mixed_lru_pair(tr, cap_evict)
    return {
        "n_requests": int(tr.n_requests),
        "vectorized_s": round(t_fast, 4),
        "sequential_s": round(t_slow, 4),
        "speedup": round(t_slow / t_fast, 2),
        "eviction_regime": {
            "gated_s": round(t_gate, 4),
            "sequential_s": round(t_dict, 4),
            "ratio": round(t_dict / t_gate, 2),
        },
    }


def run():
    return {
        "mode": "smoke" if SMOKE else "full",
        "analytic": _bench_analytic(),
        "mixed_size_lru": _bench_mixed_lru(),
        "floors": {
            "analytic_runtime_error": ANALYTIC_ERR_CEILING,
            "mixed_lru_speedup": MIXED_LRU_FLOOR,
        },
    }


def test_kernel_speedup(benchmark):
    r = benchmark.pedantic(run, rounds=1, iterations=1)
    a, m = r["analytic"], r["mixed_size_lru"]

    write_summary("kernel_speedup", r, RESULT_PATH)

    emit("kernel_speedup", table(
        ["path", "wall-clock", "notes"],
        [
            ("simulate presets", f"{a['simulate_s']:.2f}s",
             f"{a['presets']}x{a['splits_per_preset']} sweeps, LLC on"),
            ("analytic presets", f"{a['analytic_s']:.2f}s",
             f"{a['speedup_vs_batch_simulate']:.1f}x, "
             f"err {a['worst_runtime_error']:.2%}"),
            ("mixed LRU", f"{m['vectorized_s']:.3f}s",
             f"{m['speedup']:.1f}x vs sequential"),
        ],
        fmt="{:>18}",
    ) + [
        f"summary JSON at benchmarks/out/kernel_speedup.json "
        f"(mode={r['mode']})"
    ])

    assert a["worst_runtime_error"] <= ANALYTIC_ERR_CEILING, (
        f"analytic runtime error {a['worst_runtime_error']:.2%} exceeds "
        f"the {ANALYTIC_ERR_CEILING:.0%} envelope"
    )
    assert m["speedup"] >= MIXED_LRU_FLOOR, (
        f"mixed-size LRU speedup {m['speedup']}x fell below the "
        f"{MIXED_LRU_FLOOR}x floor in the regime the fit gate engages in"
    )
