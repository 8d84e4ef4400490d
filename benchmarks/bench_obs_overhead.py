"""Telemetry overhead on the measurement hot path.

Telemetry must be *off-path*: instrumentation only reads pipeline state,
so results are bit-identical with a session active or not, and the
wall-clock cost of leaving it enabled stays under the committed ceiling.
This bench times the two sweep shapes the instrumentation rides on —

- a validator-style batch sweep: one ``execute_placements`` call over
  many placements (counter-per-placement instrumentation);
- a runner sweep: ``ExperimentRunner.sweep`` over a small grid
  (per-experiment spans, provenance detection, sweep-level counters);

each twice, telemetry disabled and enabled (full session lifecycle in
the timed region, JSONL flushed to a scratch sink), asserts the results
are bit-identical both ways, and gates the relative overhead against
``OVERHEAD_CEILING``.  The disabled-hook cost is recorded too (ns per
call) but not gated — it is a constant-time guard clause.

Wall-clocks are best-of-N and the summary JSON is written to
``benchmarks/out/`` and — full mode only — to ``BENCH_obs.json`` at the
repo root, where the committed copy records the ceiling ``make
bench-obs`` enforces.  ``MNEMO_BENCH_SMOKE=1`` shrinks the sweeps for
the smoke target.
"""

import os
import tempfile
import time
from pathlib import Path

import numpy as np

from common import emit, table, write_summary

from repro import telemetry
from repro.kvstore.redislike import RedisLike
from repro.memsim.system import HybridMemorySystem
from repro.runner import ClientConfig, ExperimentRunner, ExperimentSpec
from repro.ycsb.client import YCSBClient
from repro.ycsb.generator import generate_trace
from repro.ycsb.presets import workload_by_name

SMOKE = os.environ.get("MNEMO_BENCH_SMOKE", "") not in ("", "0")

N_PLACEMENTS = 8 if SMOKE else 16
N_REQUESTS = 5_000 if SMOKE else 20_000
ROUNDS = 5
#: Accepted maximum relative slowdown with a telemetry session active.
OVERHEAD_CEILING = 0.03

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_obs.json"


def _paired_best(fn_off, fn_on, rounds):
    """Best-of-N for both variants, rounds interleaved.

    Alternating off/on rounds exposes both variants to the same machine
    drift (frequency scaling, cache state, background load); measuring
    the phases back-to-back instead routinely shows several percent of
    phantom 'overhead' in either direction on shared boxes.
    """
    t_off = t_on = float("inf")
    out_off = out_on = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        out_off = fn_off()
        t_off = min(t_off, time.perf_counter() - t0)
        t0 = time.perf_counter()
        out_on = fn_on()
        t_on = min(t_on, time.perf_counter() - t0)
    return out_off, t_off, out_on, t_on


def _sweep_masks(n_keys, n_placements, seed=0):
    rng = np.random.default_rng(seed)
    masks = np.zeros((n_placements, n_keys), dtype=bool)
    for i in range(n_placements):
        n_fast = (i * n_keys) // n_placements
        masks[i, rng.choice(n_keys, n_fast, replace=False)] = True
    return masks


def _with_session(fn, sink_dir):
    """Run *fn* under a full telemetry session lifecycle (timed whole)."""
    def run():
        with telemetry.session(sink=Path(sink_dir) / "bench.jsonl"):
            return fn()
    return run


def _bench_batch(sink_dir):
    """Validator-style placement sweep through the batch kernel."""
    spec = workload_by_name("trending").scaled(n_requests=N_REQUESTS)
    trace = generate_trace(spec.with_seed(1))
    system = HybridMemorySystem.testbed()
    profile = RedisLike(system.fast, system.slow).profile
    masks = _sweep_masks(trace.n_keys, N_PLACEMENTS)
    client = YCSBClient(repeats=3, seed=7)

    def work():
        return client.execute_placements(trace, masks, profile, system)

    off_results, t_off, on_results, t_on = _paired_best(
        work, _with_session(work, sink_dir), ROUNDS,
    )
    assert on_results == off_results, (
        "telemetry leaked into batch-sweep results"
    )
    return {
        "n_placements": N_PLACEMENTS,
        "n_requests": trace.n_requests,
        "off_s": round(t_off, 4),
        "on_s": round(t_on, 4),
        "overhead": round((t_on - t_off) / t_off, 4),
    }


def _bench_runner(sink_dir):
    """Uncached serial runner sweep (spans + provenance per experiment)."""
    w = workload_by_name("trending").scaled(n_requests=N_REQUESTS)
    specs = ExperimentRunner.grid(
        [w], placements=("fast", "slow", "split"),
        fast_fractions=(0.2, 0.5) if SMOKE else (0.1, 0.2, 0.4, 0.6),
    )
    runner = ExperimentRunner(cache=None, client=ClientConfig(seed=7))

    def work():
        outcome = runner.sweep(specs)
        assert outcome.ok
        return outcome.results

    off_results, t_off, on_results, t_on = _paired_best(
        work, _with_session(work, sink_dir), ROUNDS,
    )
    assert on_results == off_results, (
        "telemetry leaked into runner-sweep results"
    )
    return {
        "n_experiments": len(specs),
        "off_s": round(t_off, 4),
        "on_s": round(t_on, 4),
        "overhead": round((t_on - t_off) / t_off, 4),
    }


def _bench_disabled_hook():
    """Cost of one disabled instrumentation call (recorded, not gated)."""
    assert not telemetry.enabled()
    n = 200_000
    t0 = time.perf_counter()
    for _ in range(n):
        telemetry.count("bench.noop", kind="x")
    per_call_ns = (time.perf_counter() - t0) / n * 1e9
    return {"calls": n, "ns_per_call": round(per_call_ns, 1)}


def run():
    with tempfile.TemporaryDirectory() as sink_dir:
        batch = _bench_batch(sink_dir)
        runner = _bench_runner(sink_dir)
    disabled = _bench_disabled_hook()
    return {
        "mode": "smoke" if SMOKE else "full",
        "batch_sweep": batch,
        "runner_sweep": runner,
        "disabled_hook": disabled,
        "worst_overhead": max(batch["overhead"], runner["overhead"]),
        "floors": {"overhead_ceiling": OVERHEAD_CEILING},
    }


def test_obs_overhead(benchmark):
    r = benchmark.pedantic(run, rounds=1, iterations=1)
    b, rs, d = r["batch_sweep"], r["runner_sweep"], r["disabled_hook"]

    write_summary("obs_overhead", r, RESULT_PATH)

    emit("obs_overhead", table(
        ["sweep", "telemetry off", "telemetry on", "overhead"],
        [
            (f"batch x{b['n_placements']}", f"{b['off_s']:.3f}s",
             f"{b['on_s']:.3f}s", f"{b['overhead']:+.2%}"),
            (f"runner x{rs['n_experiments']}", f"{rs['off_s']:.3f}s",
             f"{rs['on_s']:.3f}s", f"{rs['overhead']:+.2%}"),
        ],
        fmt="{:>14}",
    ) + [
        f"disabled hook: {d['ns_per_call']:.0f} ns/call",
        f"summary JSON at benchmarks/out/obs_overhead.json (mode={r['mode']})",
    ])

    assert r["worst_overhead"] <= OVERHEAD_CEILING, (
        f"telemetry overhead {r['worst_overhead']:.2%} exceeds the "
        f"{OVERHEAD_CEILING:.0%} ceiling"
    )
