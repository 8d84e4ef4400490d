"""Served-advisor request plane: warm latency and flood-shedding gates.

Two measurements against live daemons on real unix sockets:

- **warm size latency** — once the watched profile is loaded, a
  ``size`` request is a memoized curve lookup plus socket round-trip;
  p50/p99 over a warm request train are recorded and the p99 is gated
  against ``P99_CEILING_S`` (an interactive advisor must answer fast).
- **shed rate under flood** — a deliberately under-provisioned daemon
  (one slowed worker, queue depth one) takes a concurrent burst; the
  request plane must answer or shed *every* request with structured
  errors (zero transport failures) while still serving some.

The summary JSON lands in ``benchmarks/out/`` and — full mode only —
at ``BENCH_serve.json`` in the repo root.  ``MNEMO_BENCH_SMOKE=1``
shrinks the request train for the ``make bench-serve`` smoke target.
"""

import os
import threading
import time
from pathlib import Path

from common import emit, table, write_summary

from repro.faults import request_flood
from repro.service import GuardService, ServeConfig, control_call

SMOKE = os.environ.get("MNEMO_BENCH_SMOKE", "") not in ("", "0")

N_WARM = 40 if SMOKE else 200
FLOOD_REQUESTS = 24 if SMOKE else 64
FLOOD_CONCURRENCY = 12 if SMOKE else 16
#: A warm ``size`` answer (memoized report + socket round-trip) must
#: land within this envelope at p99.
P99_CEILING_S = 0.5

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_serve.json"

#: Daemon settings: downsampled profile so warm-up is seconds, ticks
#: effectively parked so they never contend with the request train.
BASE = dict(
    workload="trending", downsample=50.0, repeats=1,
    interval_s=60.0, validate_every=0,
)


class _Daemon:
    """One in-thread daemon bound to a throwaway rundir."""

    def __init__(self, rundir, **overrides):
        self.config = ServeConfig(rundir=str(rundir), **BASE, **overrides)
        self.service = GuardService(self.config, tick_fn=lambda: 0)
        self._thread = threading.Thread(
            target=self.service.run, daemon=True,
        )

    def __enter__(self):
        self._thread.start()
        deadline = time.monotonic() + 60.0
        while not self.config.socket_path.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("daemon socket never appeared")
            time.sleep(0.02)
        return self

    def __exit__(self, *exc):
        self.service.request_stop()
        self._thread.join(timeout=30)


def _quantile(sorted_values, q):
    return sorted_values[min(
        int(q * (len(sorted_values) - 1) + 0.5), len(sorted_values) - 1,
    )]


def _warm_latency(tmp):
    """p50/p99 of a warm ``size`` train against a healthy daemon."""
    with _Daemon(tmp / "warm") as daemon:
        path = daemon.config.socket_path
        # first request pays for the profile; not part of the train
        t0 = time.perf_counter()
        assert control_call(path, {"op": "size"}, timeout=300.0)["ok"]
        load_s = time.perf_counter() - t0
        laps = []
        for _ in range(N_WARM):
            t0 = time.perf_counter()
            reply = control_call(path, {"op": "size"}, timeout=30.0)
            laps.append(time.perf_counter() - t0)
            assert reply["ok"]
        laps.sort()
        return {
            "n_requests": N_WARM,
            "load_s": round(load_s, 4),
            "p50_s": round(_quantile(laps, 0.50), 6),
            "p99_s": round(_quantile(laps, 0.99), 6),
            "max_s": round(laps[-1], 6),
        }


def _flood(tmp):
    """Shed behaviour of an under-provisioned daemon under a burst."""
    with _Daemon(tmp / "flood", workers=1, queue_depth=1) as daemon:
        path = daemon.config.socket_path
        assert control_call(path, {"op": "size"}, timeout=300.0)["ok"]
        advisor = daemon.service.advisor
        real_size = advisor.size

        def slow_size(**kwargs):
            time.sleep(0.05)
            return real_size(**kwargs)

        advisor.size = slow_size
        tally = request_flood(
            path, {"op": "size"},
            n_requests=FLOOD_REQUESTS, concurrency=FLOOD_CONCURRENCY,
        )
        total = FLOOD_REQUESTS
        return {
            "n_requests": total,
            "concurrency": FLOOD_CONCURRENCY,
            "ok": tally["ok"],
            "overloaded": tally["overloaded"],
            "deadline_exceeded": tally["deadline_exceeded"],
            "other_error": tally["other_error"],
            "connection_error": tally["connection_error"],
            "shed_rate": round(tally["overloaded"] / total, 4),
        }


def run():
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        warm = _warm_latency(tmp)
        flood = _flood(tmp)
    return {
        "mode": "smoke" if SMOKE else "full",
        "warm_size": warm,
        "flood": flood,
        "floors": {"p99_ceiling_s": P99_CEILING_S},
    }


def test_serve_latency_and_shedding(benchmark):
    r = benchmark.pedantic(run, rounds=1, iterations=1)

    write_summary("serve", r, RESULT_PATH)

    warm, flood = r["warm_size"], r["flood"]
    emit("serve", table(
        ["metric", "value"],
        [
            ("profile load", f"{warm['load_s']:.2f}s"),
            (f"warm size p50 (n={warm['n_requests']})",
             f"{warm['p50_s'] * 1e3:.2f}ms"),
            ("warm size p99", f"{warm['p99_s'] * 1e3:.2f}ms"),
            ("flood answered", f"{flood['ok']}/{flood['n_requests']}"),
            ("flood shed rate", f"{flood['shed_rate']:.0%}"),
        ],
        fmt="{:>12}",
    ) + [
        f"p99 ceiling: {P99_CEILING_S * 1e3:.0f}ms",
        f"summary JSON at benchmarks/out/serve.json (mode={r['mode']})",
    ])

    assert warm["p99_s"] <= P99_CEILING_S, (
        f"warm size p99 {warm['p99_s'] * 1e3:.1f}ms over the "
        f"{P99_CEILING_S * 1e3:.0f}ms ceiling"
    )
    assert flood["connection_error"] == 0, (
        f"flood caused {flood['connection_error']} transport failures; "
        "every request must be answered or cleanly shed"
    )
    assert flood["other_error"] == 0, flood
    assert flood["ok"] >= 1, "flood starved the daemon completely"
    assert flood["overloaded"] >= 1, (
        "under-provisioned daemon never shed; admission control is dead"
    )
