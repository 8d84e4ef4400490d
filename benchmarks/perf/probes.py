"""Layer probes of the traced pass: public functions called directly.

Spans explain the in-process workloads; a subprocess or a daemon cannot
be entered from outside, and a per-call cost of a few microseconds is
below what one span resolves.  For those the traced pass times the
layer's public functions in a loop here, on inputs taken from the
workload that is the metric's home.  Each probe returns
``{metric name: value}``; differences (``runner.pool_spawn_ms``,
``store.sweep_write_ms``, ``service.socket_self_ms``,
``cli.unexplained_ms``) are computed from their parts, never measured.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from harness import derive, percentile, tail_percentile
from workloads import (
    SLO,
    SPLIT_FRACTIONS,
    WATCHED,
    cli_main_inproc,
    remove_db,
)


def timed_ms(fn) -> float:
    """Milliseconds one call of *fn* takes."""
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) * 1e3


def per_call_ms(fn, calls: int) -> float:
    """Mean milliseconds per call over *calls* back-to-back calls of ``fn(k)``."""
    t0 = time.perf_counter()
    for k in range(calls):
        fn(k)
    return (time.perf_counter() - t0) * 1e3 / calls


def median_ms(fn, calls: int) -> float:
    """Median milliseconds over *calls* individually timed calls of ``fn(k)``."""
    return percentile([timed_ms(lambda: fn(k)) for k in range(calls)], 50.0)


def ok_ms(measured) -> list[float]:
    return [r.seconds * 1e3 for r in measured.records if r.error is None]


def oplog_append_us(store) -> float:
    """Microseconds per ``Oplog.append`` of a request-served entry."""
    from repro.store import KIND_REQUEST_SERVED

    return 1e3 * per_call_ms(
        lambda k: store.oplog.append(
            "probe", KIND_REQUEST_SERVED, op="size", status="ok",
            stale=False, duration_s=0.001), 200)


def daemon_start_ms(daemon) -> dict[str, float]:
    """What the set-up of a serve workload spent waiting for its daemon."""
    return {
        "service.spawn_to_socket_ms": daemon.spawn_to_socket_s * 1e3,
        "service.first_size_ms": daemon.first_size_s * 1e3,
    }


# -- repro.telemetry -------------------------------------------------------------


def telemetry_overhead_pct(wl) -> float:
    """profile_cold ops inside vs outside a telemetry session, interleaved."""
    from repro import telemetry

    inside, outside = [], []
    for k, item in enumerate(wl.schedule[:8]):
        outside.append(timed_ms(lambda: wl.op(k, item)))
        with telemetry.session():
            inside.append(timed_ms(lambda: wl.op(k, item)))
    return (percentile(inside, 50.0) / percentile(outside, 50.0) - 1.0) * 100.0


# -- repro.cli -------------------------------------------------------------------


def cli_probes(wl, measured) -> dict[str, float]:
    """Where a cold ``mnemo profile`` goes: interpreter, import, main."""

    def spawn(code: str):
        subprocess.run(
            [sys.executable, "-c", code], env=wl.env, check=True,
            capture_output=True,
        )

    interp = median_ms(lambda k: spawn("pass"), 7)
    imported = median_ms(lambda k: spawn("import repro.cli"), 5)
    items = wl.schedule[:5]
    main = median_ms(
        lambda k: cli_main_inproc(wl.argv(f"probe{k}", items[k])), len(items),
    )
    laps = ok_ms(measured)
    op = percentile(laps, 50.0) if laps else 0.0
    parts = interp + (imported - interp) + main
    return {
        "cli.interp_ms": interp,
        "cli.import_ms": imported - interp,
        "cli.main_inproc_ms": main,
        "cli.unexplained_ms": op - parts,
        "trace.explained_ratio": parts / op if op else 0.0,
    }


# -- repro.runner ----------------------------------------------------------------


def runner_probes(wl) -> dict[str, float]:
    """Serial vs pooled, cold vs warm pool, with and without a store."""
    from repro.runner import ExperimentRunner

    home = wl.scratch / "sweep"
    cells12 = wl.grid(SPLIT_FRACTIONS, workloads=wl.workloads[:1])
    serial_nostore = timed_ms(lambda: wl.sweep(None, cells12, workers=1))
    serial_store = timed_ms(
        lambda: wl.sweep(home / "probe-serial.db", cells12, workers=1))
    remove_db(home / "probe-serial.db")

    db = home / "probe-pool.db"
    runner = ExperimentRunner(cache=str(db), client=wl.client_config)
    try:
        cold = timed_ms(lambda: runner.sweep(wl.specs, workers=2))
        db_bytes = sum(
            Path(f"{db}{suffix}").stat().st_size
            for suffix in ("", "-wal") if Path(f"{db}{suffix}").exists()
        )
        # disjoint fractions: every cell is computed again, on a warm pool
        shifted = wl.grid(np.linspace(0.07, 0.93, 12).round(4))
        warm = timed_ms(lambda: runner.sweep(shifted, workers=2))
    finally:
        close = timed_ms(runner.close)
        runner.cache.close()
        remove_db(db)
    return {
        "runner.sweep_serial_nostore_ms": serial_nostore,
        "runner.sweep_serial_store_ms": serial_store,
        "runner.sweep_pool_cold_ms": cold,
        "runner.sweep_pool_warm_ms": warm,
        "runner.pool_spawn_ms": cold - warm,
        "runner.close_ms": close,
        "store.sweep_write_ms": serial_store - serial_nostore,
        "store.db_bytes": float(db_bytes),
    }


# -- repro.store and the codecs --------------------------------------------------


def store_probes(wl) -> dict[str, float]:
    """Per-call cost of the store, its codecs and the fingerprints."""
    from repro.kvstore.profiles import profile_for
    from repro.runner import ExperimentRunner
    from repro.runner.cache import (
        decode_result,
        decode_trace,
        encode_result,
        encode_trace,
    )
    from repro.runner.fingerprint import (
        experiment_fingerprint_parts,
        trace_fingerprint,
    )
    from repro.store import SQLiteStore
    from repro.ycsb import generate_trace

    home = wl.scratch / "sweep"
    result = wl.reference[0]
    trace = generate_trace(wl.workloads[0])
    envelope = encode_result(result)
    blob = encode_trace(trace)

    def open_new(k):
        SQLiteStore(home / f"probe-open{k}.db").close()

    out = {"store.open_ms": median_ms(open_new, 5)}
    for k in range(5):
        remove_db(home / f"probe-open{k}.db")

    store = SQLiteStore(home / "probe-store.db")
    try:
        out["store.put_result_us"] = 1e3 * per_call_ms(
            lambda k: store.put_result(f"{k:016x}", result), 200)
        out["store.get_result_us"] = 1e3 * per_call_ms(
            lambda k: store.get_result(f"{k:016x}"), 200)
        out["store.put_trace_ms"] = per_call_ms(
            lambda k: store.put_trace(f"{k:016x}", trace), 5)
        out["store.get_trace_ms"] = per_call_ms(
            lambda k: store.get_trace(f"{k:016x}"), 5)
        out["store.oplog_append_us"] = oplog_append_us(store)
    finally:
        store.close()
        remove_db(home / "probe-store.db")
    out["store.codec.encode_result_us"] = 1e3 * per_call_ms(
        lambda k: encode_result(result), 200)
    out["store.codec.decode_result_us"] = 1e3 * per_call_ms(
        lambda k: decode_result(envelope), 200)
    out["store.codec.encode_trace_ms"] = per_call_ms(
        lambda k: encode_trace(trace), 5)
    out["store.codec.decode_trace_ms"] = per_call_ms(
        lambda k: decode_trace(blob), 5)

    runner = ExperimentRunner(cache=None, client=wl.client_config)
    spec = wl.specs[0]
    mask = runner.placement_mask(spec, trace)
    digest = trace_fingerprint(trace)
    profile, system = profile_for(spec.engine), runner.system_factory()
    client = wl.client_config.build()
    out["runner.fingerprint.trace_us"] = 1e3 * per_call_ms(
        lambda k: trace_fingerprint(trace), 20)
    out["runner.fingerprint.experiment_us"] = 1e3 * per_call_ms(
        lambda k: experiment_fingerprint_parts(
            digest, profile, mask, system, client), 100)
    return out


# -- repro.service ---------------------------------------------------------------


def service_probes(wl, measured) -> dict[str, float]:
    """A warm ``size`` taken apart: advisor, request plane, oplog, the rest."""
    from repro.service import Deadline, RequestPlane, ServeConfig, ServedAdvisor
    from repro.store import SQLiteStore

    daemon = wl.daemon
    request = wl.schedule[0]
    ping = median_ms(lambda k: daemon.call({"op": "ping"}), 200)
    status = median_ms(lambda k: daemon.call({"op": "status"}), 200)
    laps = [timed_ms(lambda: daemon.call(request)) for _ in range(1000)]

    advisor = ServedAdvisor(ServeConfig(seed=wl.daemon_seed))
    advisor.ensure_loaded()
    inproc = per_call_ms(lambda k: advisor.size(), 2000)

    plane = RequestPlane(workers=2, queue_depth=8).start()
    try:
        submit = per_call_ms(
            lambda k: plane.submit("noop", lambda: {"ok": True}, Deadline(30.0)),
            2000,
        )
    finally:
        plane.close()

    db = wl.home / "probe-oplog.db"
    store = SQLiteStore(db)
    try:
        oplog_us = oplog_append_us(store)
    finally:
        store.close()
        remove_db(db)

    p50 = percentile(laps, 50.0)
    parts = inproc + submit + oplog_us / 1e3
    return {
        **daemon_start_ms(daemon),
        "service.ping_ms": ping,
        "service.status_ms": status,
        "service.size_warm_p50_ms": p50,
        "service.size_warm_p99_ms": tail_percentile(laps, 99.0),
        "service.size_inproc_us": inproc * 1e3,
        "service.plane_submit_us": submit * 1e3,
        "store.oplog_append_us": oplog_us,
        "service.socket_self_ms": p50 - parts,
        "trace.explained_ratio": parts / p50,
    }


# -- repro.guard -----------------------------------------------------------------


def guard_probes(wl, measured) -> dict[str, float]:
    """validate and drift computed in this process, beside their socket cost."""
    from repro.core.slo import choice_at
    from repro.guard import DriftDetector, ErrorBudget

    _, mnemo, report = wl.reference_report(*WATCHED)
    validator = mnemo.guard_loop(budget=ErrorBudget()).validator
    rng = random.Random(derive(wl.seed, "guard-probe"))
    splits = [rng.randrange(1, wl.planning.n_keys) for _ in range(8)]
    validate = median_ms(
        lambda k: validator.validate(
            report.curve,
            choice_at(report.curve, splits[k], max_slowdown=SLO),
            wl.planning,
        ), len(splits))
    request = wl.prepare(0, "drift")
    sample = np.asarray(request["keys"], dtype=np.int64)
    drift = median_ms(
        lambda k: DriftDetector(wl.planning).observe(sample).report(), 20)

    out = {
        "guard.validate_inproc_ms": validate,
        "guard.drift_inproc_ms": drift,
        **daemon_start_ms(wl.daemon),
        "service.drift_request_bytes": float(len(json.dumps(request)) + 1),
    }
    for name in ("service.validate_ms", "service.drift_ms"):
        if measured.samples.get(name):
            out[name] = percentile(measured.samples[name], 50.0)
    ok = ok_ms(measured)
    if ok:
        share = len(measured.samples["service.validate_ms"]) / len(ok)
        explained = share * validate + (1.0 - share) * drift
        out["trace.explained_ratio"] = explained / (sum(ok) / len(ok))
    return out
