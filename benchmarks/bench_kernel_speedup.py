"""Analytic fast-path and LLC frontier-pass gates.

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

The LLC frontier pass (``LLCModel.process`` on a cold cache) is timed
against the sequential ``access`` loop — the same ``process`` call on a
cache made warm by a zero-byte sentinel entry, which is what routes it
to the loop — at an evicting capacity, at a fitting one, and on the
pass's worst case (a cyclic scan one record over capacity, where every
request is settled by the residue).  Gated at >= 2x where it evicts and
at parity on the worst case: there is one vector path and no gate in
front of it, so it has to win where the old ones bailed out.
"""

import os
import time
from pathlib import Path

import numpy as np

from common import emit, table, write_summary

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
#: Accepted minimum frontier-pass speedup over the loop under eviction.
LLC_EVICTING_FLOOR = 2.0
#: ... and on the all-undecided worst case, where parity is the promise.
LLC_WORST_CASE_FLOOR = 1.0
#: A key no trace uses: resident at zero bytes it makes a cache warm
#: (so ``process`` replays ``access``) without displacing anything.
SENTINEL_KEY = -1

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


def _llc_pair(keys, sizes, cap):
    """Frontier pass vs the sequential loop on one trace at *cap*."""
    def vector_pass():
        return LLCModel(capacity_bytes=cap).process(keys, sizes)

    def sequential():
        llc = LLCModel(capacity_bytes=cap)
        llc._entries[SENTINEL_KEY] = 0
        return llc.process(keys, sizes)

    fast_mask, t_fast = _best_of(vector_pass, 5)
    slow_mask, t_slow = _best_of(sequential, 3)
    assert np.array_equal(fast_mask, slow_mask), (
        "LLC frontier pass diverged from the sequential model"
    )
    return {
        "vector_s": round(t_fast, 4),
        "sequential_s": round(t_slow, 4),
        "speedup": round(t_slow / t_fast, 2),
    }


def _bench_llc_pass():
    """The frontier pass vs the loop: evicting, fitting, and worst case."""
    spec = workload_by_name("trending")
    if SMOKE:
        spec = spec.scaled(n_keys=2_000, n_requests=10_000)
    tr = generate_trace(spec.with_seed(3))
    sizes = tr.record_sizes[tr.keys]
    dataset = int(tr.record_sizes.sum())
    # every request undecided: a scan over one record more than fits
    records = 1_001
    scan = np.arange(tr.n_requests) % records
    return {
        "n_requests": int(tr.n_requests),
        "evicting": _llc_pair(tr.keys, sizes, dataset // 5),
        "fitting": _llc_pair(tr.keys, sizes, dataset),
        "cyclic_worst_case": _llc_pair(
            scan, np.full(scan.size, 100), 100 * (records - 1),
        ),
    }


def run():
    return {
        "mode": "smoke" if SMOKE else "full",
        "analytic": _bench_analytic(),
        "llc_frontier_pass": _bench_llc_pass(),
        "floors": {
            "analytic_runtime_error": ANALYTIC_ERR_CEILING,
            "llc_evicting_speedup": LLC_EVICTING_FLOOR,
            "llc_worst_case_speedup": LLC_WORST_CASE_FLOOR,
        },
    }


def test_kernel_speedup(benchmark):
    r = benchmark.pedantic(run, rounds=1, iterations=1)
    a, llc = r["analytic"], r["llc_frontier_pass"]

    write_summary("kernel_speedup", r, RESULT_PATH)

    emit("kernel_speedup", table(
        ["path", "wall-clock", "notes"],
        [
            ("simulate presets", f"{a['simulate_s']:.2f}s",
             f"{a['presets']}x{a['splits_per_preset']} sweeps, LLC on"),
            ("analytic presets", f"{a['analytic_s']:.2f}s",
             f"{a['speedup_vs_batch_simulate']:.1f}x, "
             f"err {a['worst_runtime_error']:.2%}"),
        ] + [
            (f"LLC pass, {regime.replace('_', ' ')}",
             f"{llc[regime]['vector_s'] * 1e3:.1f}ms",
             f"{llc[regime]['speedup']:.1f}x vs the access loop")
            for regime in ("evicting", "fitting", "cyclic_worst_case")
        ],
        fmt="{:>28}",
    ) + [
        f"summary JSON at benchmarks/out/kernel_speedup.json "
        f"(mode={r['mode']})"
    ])

    assert a["worst_runtime_error"] <= ANALYTIC_ERR_CEILING, (
        f"analytic runtime error {a['worst_runtime_error']:.2%} exceeds "
        f"the {ANALYTIC_ERR_CEILING:.0%} envelope"
    )
    assert llc["evicting"]["speedup"] >= LLC_EVICTING_FLOOR, (
        f"LLC frontier pass is {llc['evicting']['speedup']}x the access "
        f"loop under eviction, below the {LLC_EVICTING_FLOOR}x floor"
    )
    assert llc["cyclic_worst_case"]["speedup"] >= LLC_WORST_CASE_FLOOR, (
        f"LLC frontier pass is {llc['cyclic_worst_case']['speedup']}x the "
        f"access loop on its worst case (a cyclic scan one record over "
        f"capacity), below the {LLC_WORST_CASE_FLOOR}x floor"
    )
