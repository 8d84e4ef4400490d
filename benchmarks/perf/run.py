#!/usr/bin/env python3
"""The repo's benchmark: seven workloads, end to end and layer by layer.

Two ways in:

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    one measured run of one workload — what the driver named in
    ``BENCHMARK.json`` calls.  The last line of stdout is one JSON
    object ``{"correct", "attempted", "failed", "metrics"}``: every
    end-to-end metric with ``--trace 0``, every per-layer metric with
    ``--trace 1``.  Exits non-zero when any output fails verification.

``run.py --seed N [--runs K] [--traced] [--workload NAME]``
    the full benchmark: every workload (or the one named), ``K`` seeds
    each, one subprocess per run; prints every metric by name with its
    unit and sample count, writes the result set under
    ``benchmarks/out/perf/`` and appends one line to ``history.jsonl``
    when all seven workloads ran.  ``--traced`` adds the per-layer pass.

The load is a closed loop from this one process with at most ``nproc``
callers; inputs come from ``--seed`` alone.  See ``README.md``.
"""

from __future__ import annotations

import os

# one BLAS thread, for the harness and every child it starts; set before
# numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402
import metrics  # noqa: E402
from harness import OUT_DIR, ROOT, SRC, percentile, quartiles  # noqa: E402

#: Set-ups (and timed imports) per run; ``setup_s`` reports their medians.
SETUP_REPEATS = 3
#: Schema of the result files and history lines.
SCHEMA = 1

# -- one run of one workload ---------------------------------------------------


def ok_ms(records) -> list[float]:
    return [r.seconds * 1e3 for r in records if r.error is None]


def failures(wl, measured_phases) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every op of every phase."""
    attempted, reasons = 0, list(wl.errors)
    for measured in measured_phases:
        for r in (*measured.records, *measured.side_records):
            attempted += 1
            if r.error is not None:
                reasons.append(f"op {r.index}: {r.error}")
    return attempted + len(wl.errors), len(reasons), reasons


def typical_ms(wl, records) -> float | None:
    """Median latency per kind of op, averaged with the schedule's weights.

    A mixed schedule (LLC specs from 60 to 160 ms, validate beside
    drift) has no stable overall median: it would sit between two
    kinds and jump with the ops a run happened to complete.  Taking
    the median within each kind and weighting the kinds as the
    schedule does gives one figure that does not depend on that.
    """
    by_kind: dict = {}
    for r in records:
        if r.error is None:
            kind = wl.kind(wl.schedule[r.index % len(wl.schedule)])
            by_kind.setdefault(kind, []).append(r.seconds * 1e3)
    weight: dict = {}
    for item in wl.schedule:
        kind = wl.kind(item)
        if kind in by_kind:
            weight[kind] = weight.get(kind, 0) + 1
    if not weight:
        return None
    return sum(
        w * percentile(by_kind[kind], 50.0) for kind, w in weight.items()
    ) / sum(weight.values())


def end_to_end(wl, measured, setup_s: float) -> dict[str, dict]:
    """Every end-to-end metric of one untraced run, with sample counts."""
    laps = ok_ms(measured.records)
    if not laps:
        return {}
    # medians over the consecutive parts of the run: a host disturbed for
    # less than half of it leaves them where they were
    parts = [seg for seg in measured.segments if seg.ok_ops]
    out = {
        "setup_s": {"value": setup_s, "n": SETUP_REPEATS},
        "ops_per_s": {
            "value": percentile([p.ok_ops / p.busy_s for p in parts], 50.0),
            "n": len(laps),
        },
        "op_p50_ms": {"value": typical_ms(wl, measured.records),
                      "n": len(laps)},
        "cpu_s_per_op": {
            "value": percentile([p.cpu_s / p.ok_ops for p in parts], 50.0),
            "n": len(laps),
        },
    }
    p90 = harness.tail_percentile(laps, 90.0)
    if p90 is not None:
        out["op_p90_ms"] = {"value": p90, "n": len(laps)}
    for name, samples in measured.samples.items():
        if name in metrics.BY_NAME and metrics.BY_NAME[name].layer is None \
                and samples:
            out[name] = {"value": percentile(samples, 50.0), "n": len(samples)}
    return out


def import_seconds(repeats: int) -> list[float]:
    """Seconds a fresh interpreter takes to import the workloads and ``repro``.

    The harness pays this import once per run, which is too few samples
    for a steady ``setup_s``; so it is timed in *repeats* interpreters
    of their own, after numpy and the harness are loaded, as here.
    """
    code = (
        "import sys, time; sys.path[:0] = sys.argv[1:]; import harness; "
        "t0 = time.perf_counter(); import workloads; "
        "print(time.perf_counter() - t0)"
    )
    return [
        float(subprocess.run(
            [sys.executable, "-c", code, str(harness.HERE), str(SRC)],
            capture_output=True, text=True, check=True,
        ).stdout)
        for _ in range(repeats)
    ]


def traced_pass(wl, seconds: float):
    """Untraced ops, the same ops under spans, then the layer probes.

    Returns ``(phases, layer metrics, tracer, per-op span table)``.  The
    untraced phase runs with the wrappers installed but disabled, so the
    only difference to the traced phase is the spans themselves.
    """
    layers = {m.name: 0.0 for m in metrics.PER_LAYER}
    tracer = harness.Tracer()
    wl.instrument(tracer)
    table: dict = {}
    try:
        tracer.enabled = False
        untraced = wl.measure(seconds * (0.25 if wl.in_process else 0.4))
        phases = [untraced]
        plain = ok_ms(untraced.records)
        tracer.enabled = True
        if wl.in_process and plain:
            traced = wl.measure(
                seconds * 0.25, tracer=tracer,
                first_index=len(untraced.records),
            )
            phases.append(traced)
            # layer time is what the ops spent; spans of finish() stay out
            n_ops = len(traced.records)
            table = tracer.self_times([
                sp for sp in tracer.spans
                if sp.op is not None and sp.name != "op"
            ])
            covered_s = sum(row["self_s"] for row in table.values())
            layers["trace.explained_ratio"] = (
                covered_s / n_ops / (percentile(plain, 50.0) / 1e3)
            )
            spanned = ok_ms(traced.records)
            if spanned:
                layers["trace.overhead_pct"] = (
                    percentile(spanned, 50.0) / percentile(plain, 50.0) - 1.0
                ) * 100.0
        wl.finish()  # verification; also the analytic pass, under spans
        if table:
            layers.update(wl.layer_metrics(
                table, tracer.self_times(), tracer.spans, n_ops))
    finally:
        tracer.restore()
    for name, value in wl.probes(untraced).items():
        if value is not None:
            layers[name] = value
    return phases, layers, tracer, table


def run_once(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Calibrate, set up, measure, verify, tear down, calibrate again."""
    scratch = OUT_DIR / f"tmp-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    started = time.perf_counter()
    calib_before = harness.calibrate()
    import workloads  # and with it ``repro``

    t0 = time.perf_counter()
    wl = workloads.BY_NAME[name](seed, scratch)
    build_s = time.perf_counter() - t0
    setups: list[float] = []
    span_file = None
    try:
        for k in range(1 if trace else SETUP_REPEATS):
            if k:
                wl.teardown()
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
        if trace:
            phases, values, tracer, table = traced_pass(wl, seconds)
            traced_ops = sum(sp.name == "op" for sp in tracer.spans)
            span_file = tracer.dump(
                OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
            result_metrics = {
                k: {"value": v, "n": 1} for k, v in values.items()
            }
        else:
            measured = wl.measure(seconds)
            extra = wl.finish()
            phases, table, traced_ops = [measured], {}, 0
            setup_s = (
                percentile(import_seconds(SETUP_REPEATS), 50.0) + build_s
                + percentile(setups, 50.0)
            )
            result_metrics = end_to_end(wl, measured, setup_s)
            for key, (value, n) in extra.items():
                result_metrics[key] = {"value": value, "n": n}
    finally:
        wl.teardown()
        shutil.rmtree(scratch, ignore_errors=True)
    calib_after = harness.calibrate()
    attempted, failed, reasons = failures(wl, phases)
    if trace:
        result_metrics["host.calib_ms"] = {
            "value": (calib_before + calib_after) / 2.0, "n": 2,
        }
    else:
        result_metrics["peak_rss_mb"] = {"value": harness.peak_rss_mb(), "n": 1}
        result_metrics["fail_ratio"] = {
            "value": failed / attempted, "n": attempted,
        }
    for key, entry in result_metrics.items():
        entry["unit"] = metrics.BY_NAME[key].unit
    return {
        "schema": SCHEMA,
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "metrics": result_metrics,
        "attempted": attempted,
        "failed": failed,
        "errors": reasons[:20],
        "elapsed_s": time.perf_counter() - started,
        "calib_ms": [calib_before, calib_after],
        "flags": (
            ["host_noise"]
            if calib_drift(calib_before, calib_after) > harness.CALIB_TOLERANCE
            else []
        ),
        "spans": {
            name_: {"calls": row["calls"], "self_s": row["self_s"],
                    "total_s": row["total_s"]}
            for name_, row in table.items()
        },
        "traced_ops": traced_ops,
        "span_file": str(span_file) if span_file else None,
        "host": harness.host_facts(),
    }


def calib_drift(before: float, after: float) -> float:
    """How far the two calibrations of a run lie apart (share of the lower)."""
    return abs(after - before) / min(before, after)


def contract_line(result: dict) -> str:
    """The one JSON object the driver reads from the last line of stdout."""
    wanted = (
        metrics.PER_LAYER if result["trace"] else metrics.reported_by_all()
    )
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m.name: {
                "value": result["metrics"][m.name]["value"], "unit": m.unit,
            }
            for m in wanted
        },
    })


def print_run(result: dict) -> None:
    """Every metric of one run by name, with unit and sample count."""
    print(
        f"== {result['workload']} seed={result['seed']} "
        f"seconds={result['seconds']:g} trace={result['trace']} "
        f"attempted={result['attempted']} failed={result['failed']} "
        f"calib_ms={result['calib_ms'][0]:.1f}/{result['calib_ms'][1]:.1f} "
        f"elapsed_s={result['elapsed_s']:.1f} "
        f"flags={','.join(result['flags']) or '-'}"
    )
    for key, entry in result["metrics"].items():
        print(f"  {key:<34} {entry['value']:>14.6g} {entry['unit']:<6} "
              f"n={entry['n']}")
    if result["spans"]:
        ops = result["traced_ops"]
        print(f"  spans over {ops} traced ops: name, calls per op, self ms per op")
        for key, row in sorted(
            result["spans"].items(), key=lambda kv: -kv[1]["self_s"],
        ):
            print(f"    {key:<36} {row['calls'] / ops:>8.2f} "
                  f"{row['self_s'] * 1e3 / ops:>10.3f}")
    ratio = result["metrics"].get("trace.explained_ratio")
    if ratio is not None and not 0.9 <= ratio["value"] <= 1.1:
        print(f"  finding: trace.explained_ratio {ratio['value']:.2f} is "
              "outside [0.9, 1.1] -- the layer spans/probes do not account "
              "for the op wall clock")
    for reason in result["errors"]:
        print(f"  verification: {reason}")


# -- the full benchmark ---------------------------------------------------------


def spawn_run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run in its own process; once more if the host moved under it.

    The full benchmark has no time cap, so a run whose two calibrations
    differ by more than the tolerance is repeated once and keeps the
    ``host_noise`` flag only if the second try differs too.  The driver
    repeats runs itself, so a single ``--trace`` run only carries the flag.
    """
    result = spawn_once(name, seed, seconds, trace)
    if "host_noise" in result["flags"]:
        print(f"host noise: calibration moved "
              f"{calib_drift(*result['calib_ms']):.0%} "
              f"during {name} seed {seed}; running it once more")
        result = spawn_once(name, seed, seconds, trace)
        result["flags"].append("rerun_after_host_noise")
    return result


def spawn_once(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run in its own process, so workloads cannot warm each other."""
    out = OUT_DIR / f"run-{os.getpid()}.json"
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace)), "--out", str(out)],
        capture_output=True, text=True, check=False,
    )
    try:
        result = json.loads(out.read_text())
    except (OSError, ValueError):
        raise RuntimeError(
            f"{name} seed {seed} produced no result (exit "
            f"{proc.returncode}):\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
        ) from None
    finally:
        out.unlink(missing_ok=True)
    return result


def fold(runs: list[dict]) -> dict:
    """Fold the runs of one workload into median, quartiles and counts."""
    folded: dict[str, dict] = {}
    for key in {k for run in runs for k in run["metrics"]}:
        entries = [run["metrics"][key] for run in runs if key in run["metrics"]]
        values = [e["value"] for e in entries]
        q1, med, q3 = quartiles(values)
        folded[key] = {
            "unit": entries[0]["unit"], "value": med, "q1": q1, "q3": q3,
            "n": [e["n"] for e in entries], "runs": values,
        }
    return {
        "metrics": folded,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "errors": [e for r in runs for e in r["errors"]][:20],
        "flags": sorted({f for r in runs for f in r["flags"]}),
        "calib_ms": [r["calib_ms"] for r in runs],
        "seeds": [r["seed"] for r in runs],
    }


def full(names: list[str], seed: int, runs: int, seconds: float,
         traced: bool, out: Path | None) -> int:
    """Every workload, *runs* seeds each; returns the exit code."""
    result = {
        "schema": SCHEMA, "kind": "perf-set", "seed": seed, "runs": runs,
        "run_seconds": seconds, "host": harness.host_facts(),
        "started_unix": time.time(), "workloads": {}, "layers": {},
    }
    bad = 0
    for name in names:
        done = []
        for k in range(runs):
            one = spawn_run(name, seed + k, seconds, trace=False)
            print_run(one)
            done.append(one)
        result["workloads"][name] = fold(done)
        bad += result["workloads"][name]["failed"]
        if traced:
            one = spawn_run(name, seed, seconds, trace=True)
            print_run(one)
            result["layers"][name] = fold([one])
            result["layers"][name]["spans"] = one["spans"]
            bad += one["failed"]
    print_set(result)
    out = out or OUT_DIR / (
        f"perf-{result['host']['commit']}-seed{seed}x{runs}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    if set(names) == set(metrics.WORKLOADS):
        line = {
            "schema": SCHEMA, "unix": result["started_unix"], "seed": seed,
            "runs": runs, "run_seconds": seconds, "host": result["host"],
            "metrics": {
                w: {k: e["value"] for k, e in body["metrics"].items()}
                for w, body in result["workloads"].items()
            },
        }
        with open(harness.HERE / "history.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(line, sort_keys=True) + "\n")
    return 1 if bad else 0


def print_set(result: dict) -> None:
    """The end-to-end table, then the per-layer table when traced."""
    print(f"\n== end to end: seed {result['seed']}, {result['runs']} run(s) "
          f"of {result['run_seconds']:g} s per workload, commit "
          f"{result['host']['commit']}")
    for name, body in result["workloads"].items():
        print(f"{name}: attempted {body['attempted']}, failed "
              f"{body['failed']}, flags {','.join(body['flags']) or '-'}")
        for metric in metrics.END_TO_END:
            entry = body["metrics"].get(metric.name)
            if entry is None:
                continue
            spread = harness.relative_spread(entry["runs"])
            wide = metric.bound is not None and spread > metric.bound / 3
            print(f"  {metric.name:<18} {entry['value']:>12.5g} "
                  f"{entry['unit']:<6} n={min(entry['n'])} "
                  f"[{entry['q1']:.5g} .. {entry['q3']:.5g}] "
                  f"spread {spread:.1%}"
                  + (f" (over a third of the {metric.bound:.0%} bound)"
                     if wide else ""))
    if not result["layers"]:
        return
    names = list(result["layers"])
    print("\n== per layer (0 = the workload does not exercise the layer)")
    print(f"{'metric':<34} {'unit':<6} " + " ".join(f"{n:>13}" for n in names))
    for metric in metrics.PER_LAYER:
        cells = [
            result["layers"][n]["metrics"][metric.name]["value"] for n in names
        ]
        print(f"{metric.name:<34} {metric.unit:<6} "
              + " ".join(f"{c:>13.5g}" for c in cells))


# -- entry point -----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure this long (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="one driver-style run: 0 end to end, 1 per layer")
    parser.add_argument("--traced", action="store_true",
                        help="full benchmark: add the per-layer pass")
    parser.add_argument("--runs", type=int, default=1,
                        help="full benchmark: seeds per workload")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the result JSON here")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    if args.trace is not None and not args.workload:
        parser.error("--trace needs --workload")
    # a kill must still unwind the finally blocks that stop the daemon
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    harness.adopt_orphans()
    try:
        return dispatch(args)
    finally:
        # on every path out: no child, helper or orphan outlives the run
        harness.reap_children()


def dispatch(args) -> int:
    """The full benchmark, or the one run ``--trace`` asks for."""
    seconds = args.seconds if args.seconds else float(metrics.RUN_SECONDS)
    if args.trace is None:
        names = [args.workload] if args.workload else list(metrics.WORKLOADS)
        return full(names, args.seed, args.runs, seconds, args.traced, args.out)
    result = run_once(args.workload, args.seed, seconds, bool(args.trace))
    print_run(result)
    if args.out:
        args.out.write_text(json.dumps(result) + "\n")
    wanted = metrics.PER_LAYER if args.trace else metrics.reported_by_all()
    if any(m.name not in result["metrics"] for m in wanted):
        print("error: no operation succeeded, nothing to report",
              file=sys.stderr)
        return 1
    print(contract_line(result))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
