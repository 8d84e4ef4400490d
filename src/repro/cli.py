"""Command-line interface.

The tool the paper describes is operated by infrastructure people, so
the reproduction ships a CLI mirroring the paper's interface
(Section IV, "Interfacing with Mnemo"):

    python -m repro workloads
    python -m repro profile --workload trending --engine redis \
        --slo 0.10 --csv curve.csv --plot
    python -m repro profile --requests req.csv --dataset data.csv
    python -m repro compare --workload trending
    python -m repro pricing
    python -m repro sweep --workloads trending,timeline --workers 4
    python -m repro sweep --store mnemo.db --run-id nightly
    python -m repro sweep --store mnemo.db --resume nightly
    python -m repro cache stats --dir mnemo.db
    python -m repro guard --workload trending --live-rotate 500
    python -m repro serve --workload trending --interval 60 \
        --store mnemo.db

Exit code 0 on success; usage and configuration errors print one clean
line to stderr and exit 2.  The ``guard`` subcommand additionally uses
1 (warnings) and 3 (action needed) so CI and cron jobs can react.
``sweep`` and ``serve`` install SIGTERM/SIGINT handlers so a kill
releases shared memory, pools and store handles on the way out and
exits ``128 + signum``; a closed stdout (``... | head -1``) ends any
command quietly with 141, the same convention for SIGPIPE.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from typing import TYPE_CHECKING, Sequence

from repro.errors import ConfigurationError, ReproError, UsageError

if TYPE_CHECKING:
    from repro.core.advice import AdviceRequest

# Importing this module costs argparse, logging and repro.errors only:
# each ``_cmd_*`` imports what it runs, so a cold ``profile`` never pays
# for the pool, the daemon or the guard (DESIGN.md, "Import layering").

#: CLI diagnostics go through here (``-v``/``-q`` set the level);
#: operator-facing reports and tables still ``print`` to stdout.
log = logging.getLogger("repro.cli")


def _configure_logging(verbose: int, quiet: bool) -> None:
    """Map ``-v``/``-q`` onto stdlib logging levels (stderr handler).

    Default WARNING keeps the happy path silent; ``-v`` shows INFO
    diagnostics, ``-vv`` DEBUG, ``--quiet`` errors only.  ``force``
    rebinds the handler so repeated in-process ``main()`` calls (tests)
    honour the latest flags.
    """
    if quiet:
        level = logging.ERROR
    elif verbose >= 2:
        level = logging.DEBUG
    elif verbose == 1:
        level = logging.INFO
    else:
        level = logging.WARNING
    logging.basicConfig(
        level=level,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )


def _parse_faults_arg(text: str | None):
    """Parse ``--faults`` and convert DSL errors into clean usage errors.

    The fault DSL parser raises :class:`~repro.errors.ConfigurationError`
    with the offending token in the message; at the CLI boundary that
    becomes a :class:`~repro.errors.UsageError` tagged with the option
    name so the operator sees exactly which token to fix.
    """
    from repro.faults.models import parse_faults

    try:
        return parse_faults(text) if text else None
    except ConfigurationError as exc:
        raise UsageError(f"--faults: {exc}") from exc


def _add_store_option(parser, help: str) -> None:
    """``--cache-dir`` / ``--store``: two spellings of the one store path."""
    parser.add_argument("--cache-dir", "--store", dest="cache_dir",
                        metavar="DB",
                        help=help + " (a SQLite file, created on first use)")


def _add_request_flags(parser, *names: str, **overrides: dict) -> None:
    """Declare ``--<field>`` for these ``AdviceRequest`` fields, here only,
    with the dataclass default; *overrides* adds argparse keywords."""
    from dataclasses import fields

    from repro.core.advice import ENGINES, MODES, AdviceRequest

    flags = {
        "workload": dict(help="built-in workload name"),
        "requests": dict(help="requests CSV (key,op)"),
        "dataset": dict(help="dataset CSV (key,size_bytes)"),
        "engine": dict(choices=sorted(ENGINES)),
        "mode": dict(choices=MODES,
                     help="tiering order: touch = Mnemo, weight = MnemoT"),
        "p": dict(type=float,
                  help="SlowMem price factor (default %(default)s)"),
        "slo": dict(type=float,
                    help="max slowdown vs FastMem-only (default %(default)s)"),
        "repeats": dict(type=int),
        "seed": dict(type=int),
        "downsample": dict(type=float, metavar="N",
                           help="profile a 1/N random sample of a built-in "
                                "workload"),
    }
    defaults = {f.name: f.default for f in fields(AdviceRequest)}
    for name in names:
        parser.add_argument(f"--{name}", **{
            "default": defaults[name], **flags[name], **overrides.get(name, {}),
        })


def _request(args, **given) -> AdviceRequest:
    """The ``AdviceRequest`` this command line asks, plus *given* fields;
    a bad field is a usage error naming its ``--<field>`` flag."""
    from dataclasses import fields

    from repro.core.advice import AdviceRequest

    asked = {
        f.name: getattr(args, f.name)
        for f in fields(AdviceRequest) if hasattr(args, f.name)
    }
    try:
        return AdviceRequest(**{**asked, **given})
    except ConfigurationError as exc:
        raise UsageError(f"--{exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mnemo: hybrid-memory capacity sizing consultant "
                    "(IPDPS-W 2019 reproduction)",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="diagnostic logging (-v info, -vv debug)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="errors only on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list the built-in Table III workloads")

    prof = sub.add_parser("profile", help="profile a workload")
    _add_request_flags(prof, "workload", "requests", "dataset", "engine",
                       "mode", "p", "slo", "downsample", "repeats", "seed")
    prof.add_argument("--csv", help="write the 3-column estimate curve here")
    prof.add_argument("--plot", action="store_true",
                      help="render the estimate curve as ASCII art")
    _add_store_option(prof, "memoize measurements in this result store")
    prof.add_argument("--obs", metavar="PATH",
                      help="write a telemetry event log (JSONL) here; "
                           "inspect it with 'obs PATH'")

    comp = sub.add_parser("compare",
                          help="compare all engines on one workload")
    _add_request_flags(comp, "workload", "slo",
                       workload=dict(default="trending"))

    sub.add_parser("pricing",
                   help="Figure 1: memory share of Memory-Optimized VM cost")

    drift = sub.add_parser(
        "drift", help="diagnose access-pattern drift (static-placement fit)"
    )
    _add_request_flags(drift, "workload", workload=dict(required=True))
    drift.add_argument("--capacity", type=float, default=0.2,
                       help="FastMem budget as a dataset fraction")
    drift.add_argument("--windows", type=int, default=10)

    retier = sub.add_parser(
        "retier",
        help="estimate whether periodic re-tiering beats static placement",
    )
    _add_request_flags(retier, "workload", "engine",
                       workload=dict(required=True))
    retier.add_argument("--capacity", type=float, default=0.2)
    retier.add_argument("--windows", type=int, default=10)

    mt = sub.add_parser(
        "multitier",
        help="sweep a DRAM+NVM+Far three-tier system (Pareto + SLO choice)",
    )
    _add_request_flags(mt, "workload", "slo", workload=dict(required=True))
    mt.add_argument("--grid", type=int, default=15,
                    help="capacity grid resolution per tier")

    sweep = sub.add_parser(
        "sweep",
        help="run a workload x engine x placement grid "
             "(parallel, cached, deterministic)",
    )
    sweep.add_argument("--workloads", default="trending",
                       help="comma-separated workload names, or 'all'")
    sweep.add_argument("--engines", default="redis",
                       help="comma-separated engine names, or 'all'")
    sweep.add_argument("--placements", default="fast,slow",
                       help="comma-separated placements "
                            "(fast, slow, split)")
    sweep.add_argument("--split", type=float, default=0.2,
                       help="FastMem payload fraction for 'split' cells")
    sweep.add_argument("--workers", type=int, default=1,
                       help="process count (1 = serial)")
    _add_store_option(sweep, "memoize results in this result store")
    _add_request_flags(sweep, "seed")
    sweep.add_argument("--faults", metavar="SPEC",
                       help="inject deterministic faults, e.g. "
                            "'spikes,ramp(floor=0.4),jitter' "
                            "(see docs/FAULTS.md)")
    sweep.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-experiment timeout in seconds")
    sweep.add_argument("--max-attempts", type=int, default=3,
                       help="attempts per experiment before giving up "
                            "(default 3)")
    sweep.add_argument("--obs", metavar="PATH",
                       help="write a telemetry event log (JSONL) here; "
                            "inspect it with 'obs PATH'")
    sweep.add_argument("--run-id", metavar="ID",
                       help="journal checkpoints to the store under "
                            "this run id (the sweep becomes resumable)")
    sweep.add_argument("--resume", metavar="RUN_ID",
                       help="resume a journaled run: skip checkpointed "
                            "experiments, load their results from the "
                            "store")

    cache = sub.add_parser("cache", help="inspect, verify or clear "
                                         "the result store")
    cache.add_argument("action", choices=["stats", "verify", "clear"])
    cache.add_argument("--dir", dest="cache_dir", metavar="DB",
                       help="store file (default mnemo.db)")

    guard = sub.add_parser(
        "guard",
        help="validate a recommendation against the live workload "
             "(CI/cron guardrail; exit 0=clean, 1=warn, 3=act)",
    )
    _add_request_flags(guard, "workload", "engine", "slo", "downsample",
                       "repeats", "seed", workload=dict(required=True))
    guard.add_argument("--live-workload", metavar="NAME",
                       help="built-in workload standing in for the live "
                            "stream (default: the planning workload)")
    guard.add_argument("--live-rotate", type=int, default=0, metavar="K",
                       help="rotate the live trace's hot set by K keys "
                            "(synthesizes hot-set drift for drills)")
    guard.add_argument("--budget", type=float, default=10.0, metavar="PCT",
                       help="throughput/latency error budget in percent "
                            "(default 10)")
    guard.add_argument("--no-validate", action="store_true",
                       help="drift + margin checks only; skip the "
                            "simulator replay")
    _add_store_option(guard, "memoize measurements and verdicts in this "
                             "result store")
    guard.add_argument("--obs", metavar="PATH",
                       help="write a telemetry event log (JSONL) here; "
                            "inspect it with 'obs PATH'")

    serve = sub.add_parser(
        "serve",
        help="run the guard loop as a supervised service "
             "(heartbeat file, control socket, crash-restart)",
    )
    _add_request_flags(serve, "workload", "engine", "slo", "downsample",
                       "repeats", "seed", workload=dict(default="trending"))
    serve.add_argument("--interval", type=float, default=60.0, metavar="S",
                       help="seconds between guard ticks (default 60)")
    serve.add_argument("--validate-every", type=int, default=1, metavar="N",
                       help="full simulator replay every Nth tick "
                            "(0 = drift + margin only; default 1)")
    serve.add_argument("--store", metavar="DB",
                       help="journal service events (and memoize "
                            "measurements) in this SQLite store")
    serve.add_argument("--rundir", default=None, metavar="DIR",
                       help="heartbeat + control socket directory "
                            "(default .mnemo-serve)")
    serve.add_argument("--run-id", default="serve", metavar="ID",
                       help="oplog run id for service events")
    serve.add_argument("--max-ticks", type=int, default=None, metavar="N",
                       help="stop after N ticks (drills and tests)")
    serve.add_argument("--no-supervise", action="store_true",
                       help="run the service in this process, without "
                            "the crash-restart supervisor")
    serve.add_argument("--max-restarts", type=int, default=5,
                       help="crashes tolerated before giving up "
                            "(default 5)")
    serve.add_argument("--backoff-base", type=float, default=0.5,
                       metavar="S",
                       help="first restart backoff in seconds; doubles "
                            "per restart (default 0.5)")
    serve.add_argument("--workers", type=int, default=2, metavar="N",
                       help="request-plane worker threads (default 2)")
    serve.add_argument("--queue-depth", type=int, default=8, metavar="N",
                       help="admission-queue capacity before requests "
                            "are shed (default 8)")
    serve.add_argument("--control", metavar="OP",
                       choices=["ping", "status", "metrics", "shutdown",
                                "size", "validate", "drift", "reload",
                                "register", "revoke"],
                       help="instead of serving, send OP to the service "
                            "listening under --rundir and print its reply")
    serve.add_argument("--token", default=None, metavar="TOKEN",
                       help="auth token attached to --control requests")
    serve.add_argument("--new-token", default=None, metavar="TOKEN",
                       help="token to register (--control register)")
    serve.add_argument("--revoke-token", default=None, metavar="TOKEN",
                       help="token to revoke (--control revoke)")
    serve.add_argument("--deadline", type=float, default=None, metavar="S",
                       help="per-request deadline for --control advice "
                            "ops (server default when omitted)")
    serve.add_argument("--set", action="append", default=[], metavar="K=V",
                       dest="set_fields",
                       help="request field for --control size/validate/"
                            "reload (repeatable), e.g. --set slo=0.15")
    serve.add_argument("--drift-keys", default=None, metavar="FILE",
                       help="JSON file with the key-id sample for "
                            "--control drift (a list, or an object with "
                            "'keys' and optional 'sizes')")

    obs = sub.add_parser(
        "obs",
        help="render a telemetry event log: span tree, slow spans, "
             "cache hit rate, kernel path mix",
    )
    obs.add_argument("path", help="JSONL event log written via --obs")
    obs.add_argument("--top", type=int, default=10,
                     help="slow spans to list (default 10)")
    obs.add_argument("--prom", action="store_true",
                     help="emit the final metrics in Prometheus text "
                          "format instead of the report")
    return parser


def _cmd_workloads(_args) -> int:
    from repro.ycsb.presets import TABLE_III_WORKLOADS

    print(f"{'name':<18} {'distribution':<18} {'R:W':>6} {'sizes':<14} "
          f"{'keys':>7} {'requests':>9}")
    for w in TABLE_III_WORKLOADS:
        rw = f"{int(w.read_fraction * 100)}:{int((1 - w.read_fraction) * 100)}"
        print(f"{w.name:<18} {w.distribution.name:<18} {rw:>6} "
              f"{w.size_model.name:<14} {w.n_keys:>7,} {w.n_requests:>9,}")
    return 0


def _cmd_profile(args) -> int:
    from repro.core.advice import advise

    request = _request(args)
    log.info("profiling %s (cache=%s)", request, args.cache_dir or "off")
    advice = advise(request, cache=args.cache_dir)
    print(advice.summary())
    if args.csv:
        path = advice.report.write_csv(args.csv)
        print(f"wrote estimate curve: {path}")
    if args.plot:
        from repro.analysis.asciiplot import render_estimate

        print()
        print(render_estimate(advice.report.curve))
    return 0


def _cmd_compare(args) -> int:
    from repro.core.advice import ENGINES, advise

    requests = [_request(args, engine=name) for name in ENGINES]
    print(f"{'engine':<12} {'Fast ops/s':>12} {'Slow ops/s':>12} "
          f"{'gap':>7} {'cost @SLO':>10}")
    for request in requests:
        advice = advise(request)
        b = advice.report.baselines
        print(f"{request.engine:<12} {b.fast.throughput_ops_s:>12,.0f} "
              f"{b.slow.throughput_ops_s:>12,.0f} "
              f"{b.throughput_gap:>6.2f}x {advice.choice.cost_factor:>9.0%}")
    return 0


def _cmd_pricing(_args) -> int:
    from repro.pricing.catalog import catalog_for
    from repro.pricing.vmcost import memory_fraction_summary

    summary = memory_fraction_summary()
    print(f"{'family':<26} {'instance':<20} {'mem share':>10}")
    for family, fractions in summary.items():
        for inst in catalog_for(family):
            print(f"{family:<26} {inst.name:<20} "
                  f"{fractions[inst.name]:>9.1%}")
    return 0


def _cmd_drift(args) -> int:
    from repro.core.advice import builtin_trace
    from repro.core.drift import analyze_drift

    trace = builtin_trace(args.workload)
    report = analyze_drift(trace, capacity_fraction=args.capacity,
                           n_windows=args.windows)
    print(f"workload : {report.workload}")
    print(f"drift    : {report.drift:.2f}")
    print(f"regret   : {report.regret.regret:.0%} at a "
          f"{args.capacity:.0%} FastMem budget "
          f"(static {report.regret.static_hit_fraction:.0%} vs oracle "
          f"{report.regret.oracle_hit_fraction:.0%} fast-served)")
    print(report.recommendation)
    return 0


def _cmd_retier(args) -> int:
    from repro.core.advice import advise
    from repro.core.dynamic import simulate_periodic_retiering

    advice = advise(_request(args))
    out = simulate_periodic_retiering(
        advice.trace, advice.report.baselines,
        capacity_fraction=args.capacity, n_windows=args.windows,
    )
    print(f"workload        : {out.workload} ({args.engine})")
    print(f"static          : {out.static_throughput_ops_s:,.0f} ops/s")
    print(f"retiered        : {out.dynamic_throughput_ops_s:,.0f} ops/s "
          f"({out.migrated_bytes / 1e6:,.0f} MB migrated)")
    print(f"net speedup     : {out.speedup:.3f}x")
    print("verdict         : "
          + ("periodic re-tiering pays for its copies"
             if out.worth_migrating
             else "stay static (the paper's scope is the right call)"))
    return 0


def _cmd_multitier(args) -> int:
    import numpy as np

    from repro.core.advice import builtin_trace
    from repro.kvstore.profiles import profile_for
    from repro.multitier.advisor import MultiTierAdvisor
    from repro.multitier.system import TieredMemorySystem

    trace = builtin_trace(args.workload)
    total = int(trace.record_sizes.sum())
    advisor = MultiTierAdvisor(
        TieredMemorySystem.dram_nvm_far(), profile_for("redis")
    )
    baselines = advisor.measure(trace)
    fracs = np.linspace(0.01, 1.0, args.grid)
    grid = [
        [max(1, int(f0 * total)), max(1, int(f1 * total)), None]
        for f0 in fracs for f1 in fracs if f0 + f1 <= 1.0
    ]
    plans = advisor.sweep(trace, baselines, grid)
    frontier = advisor.pareto(plans)
    choice = advisor.cheapest_within_slo(plans, baselines, args.slo)

    print(f"{'cost':>7} {'est ops/s':>11} {'DRAM':>6} {'NVM':>6} {'Far':>6}")
    step = max(1, len(frontier) // 12)
    for plan in frontier[::step]:
        d, nv, far = plan.tier_shares()
        print(f"{plan.cost_factor:>6.0%} "
              f"{plan.est_throughput_ops_s:>11,.0f} "
              f"{d:>6.0%} {nv:>6.0%} {far:>6.0%}")
    d, nv, far = choice.tier_shares()
    print(f"\nchoice @{args.slo:.0%} SLO: cost {choice.cost_factor:.0%} "
          f"(DRAM {d:.0%} / NVM {nv:.0%} / Far {far:.0%})")
    return 0


def _cmd_sweep(args) -> int:
    from repro.core.advice import ENGINES, require
    from repro.runner.cache import ensure_cache
    from repro.runner.grid import ExperimentRunner
    from repro.runner.outcome import RetryPolicy
    from repro.runner.spec import ClientConfig
    from repro.ycsb.presets import TABLE_III_WORKLOADS, workload_by_name

    require(0 <= args.split <= 1, "--split", "in [0, 1]", args.split)

    def pick(raw: str, universe: list[str], what: str) -> list[str]:
        if raw == "all":
            return universe
        names = [n.strip() for n in raw.split(",") if n.strip()]
        for n in names:
            if n not in universe:
                raise UsageError(
                    f"unknown {what} {n!r}; choose from {universe}"
                )
        return names

    workload_names = pick(
        args.workloads, [w.name for w in TABLE_III_WORKLOADS], "workload"
    )
    engines = pick(args.engines, sorted(ENGINES), "engine")
    placements = pick(args.placements, ["fast", "slow", "split"], "placement")
    faults = _parse_faults_arg(args.faults)
    client = ClientConfig(seed=args.seed, faults=faults)

    if args.run_id and args.resume:
        raise UsageError("give either --run-id or --resume, not both")
    run_id = args.resume or args.run_id
    journal = None
    cache = ensure_cache(args.cache_dir)
    if run_id:
        if cache is None:
            raise UsageError("--run-id/--resume journal to the result "
                             "store; add --store DB")
        from repro.store.journal import SweepJournal

        journal = SweepJournal(cache, run_id)
        if args.resume and not journal.started():
            raise UsageError(
                f"--resume: no journaled run {args.resume!r} in "
                f"{args.cache_dir} (known runs: "
                f"{[r for r, _ in cache.oplog.runs()] or 'none'})"
            )

    runner = ExperimentRunner(
        cache=cache,
        client=client,
        retry=RetryPolicy(
            max_attempts=args.max_attempts, timeout_s=args.timeout,
        ),
    )
    specs = ExperimentRunner.grid(
        [workload_by_name(n) for n in workload_names],
        engines=engines,
        placements=placements,
        fast_fractions=(args.split,),
    )
    if faults is not None and faults.active:
        log.info("fault injection: %s", faults.describe())
    if journal is not None:
        log.info("journaling sweep under run id %r in %s",
                 run_id, args.cache_dir)
    log.info(
        "sweeping %d experiment(s) across %d worker(s)",
        len(specs), args.workers,
    )
    try:
        outcome = runner.sweep(specs, workers=args.workers, journal=journal)
    finally:
        runner.close()
        if cache is not None:
            cache.close()
    for line in outcome.summary().splitlines():
        log.info("%s", line)
    print(f"{'experiment':<40} {'ops/s':>12} {'avg read us':>12} "
          f"{'p99 us':>9}")
    for spec, res in zip(specs, outcome.results):
        if res is None:
            print(f"{spec.label:<40} {'FAILED':>12}")
            continue
        p99 = res.latency_percentiles_ns.get(99.0, float("nan")) / 1e3
        print(f"{spec.label:<40} {res.throughput_ops_s:>12,.0f} "
              f"{res.avg_read_ns / 1e3:>12.1f} {p99:>9.1f}")
    if not outcome.ok:
        print(f"\n{outcome.report.summary()}", file=sys.stderr)
        return 1
    return 0


def _cmd_cache(args) -> int:
    from repro.store.store import DEFAULT_STORE_PATH, SQLiteStore

    path = args.cache_dir or DEFAULT_STORE_PATH
    if not os.path.exists(path):
        # opening would create it: a typo must not verify as "intact"
        raise ConfigurationError(f"no store at {path}")
    cache = SQLiteStore(path)
    try:
        if args.action == "clear":
            removed = cache.clear()
            print(f"removed {removed} cached entries from {cache.root}")
            return 0
        print(f"cache: {cache.root}")
        if args.action == "verify":
            structure = cache.integrity_check()
            print(f"{'sqlite':<10} integrity_check: {structure}")
            report = cache.verify()
            for line in report.lines():
                print(line)
            return 0 if report.ok and structure == "ok" else 1
        for line in cache.stats().lines():
            print(line)
        return 0
    finally:
        cache.close()


def _cmd_guard(args) -> int:
    from repro.core.advice import advise, builtin_trace, require
    from repro.guard.drift import rotate_hot_set
    from repro.guard.validator import ErrorBudget

    request = _request(args)
    require(args.budget > 0, "--budget", "positive", args.budget)

    live = builtin_trace(args.live_workload) if args.live_workload else None
    advice = advise(request, cache=args.cache_dir)
    planning = advice.trace
    if live is None:
        live = planning
    if args.live_rotate:
        log.info("rotating the live hot set by %d keys", args.live_rotate)
        live = rotate_hot_set(live, args.live_rotate)

    loop = advice.consultant.guard_loop(
        budget=ErrorBudget(
            throughput_pct=args.budget, latency_pct=args.budget
        ),
    )
    outcome = loop.run(
        advice.report,
        planning,
        live_trace=live,
        max_slowdown=args.slo,
        validate=not args.no_validate,
    )
    print(f"guard — workload {args.workload!r} on {args.engine} "
          f"(SLO {args.slo:.0%}, budget {args.budget:g}%)")
    for line in outcome.lines():
        print(f"  {line}")
    return outcome.exit_code


def _parse_set_fields(pairs) -> dict:
    """Parse repeated ``--set key=value`` flags into request fields.

    Values parse as JSON when they can (numbers, booleans, null) and
    fall back to plain strings, so ``--set slo=0.15`` sends a float
    while ``--set workload=news_feed`` sends a string.
    """
    import json as _json

    fields = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise UsageError(f"--set expects key=value, got {pair!r}")
        try:
            fields[key] = _json.loads(value)
        except _json.JSONDecodeError:
            fields[key] = value
    return fields


def _control_request(args) -> dict:
    """Assemble the request fields for one ``--control`` op."""
    import json as _json
    from pathlib import Path

    from repro.core.advice import require

    request = _parse_set_fields(args.set_fields)
    if args.deadline is not None:
        require(args.deadline > 0, "--deadline", "positive", args.deadline)
        request["deadline_s"] = args.deadline
    if args.control == "register":
        if not args.new_token:
            raise UsageError("--control register needs --new-token")
        request["new_token"] = args.new_token
    if args.control == "revoke":
        if not args.revoke_token:
            raise UsageError("--control revoke needs --revoke-token")
        request["revoke_token"] = args.revoke_token
    if args.control == "drift":
        if not args.drift_keys:
            raise UsageError("--control drift needs --drift-keys FILE")
        try:
            doc = _json.loads(
                Path(args.drift_keys).read_text(encoding="utf-8")
            )
        except (OSError, _json.JSONDecodeError) as exc:
            raise UsageError(
                f"cannot read drift sample {args.drift_keys}: {exc}"
            ) from exc
        if isinstance(doc, dict):
            request["keys"] = doc.get("keys")
            if doc.get("sizes") is not None:
                request["sizes"] = doc["sizes"]
        else:
            request["keys"] = doc
    return request


def _cmd_serve(args) -> int:
    import json as _json

    from repro.errors import ServiceError
    from repro.service.client import ServiceClient, diagnose_unreachable
    from repro.service.serve import (
        DEFAULT_RUNDIR,
        ServeConfig,
        _service_child,
        run_service,
    )
    from repro.service.supervisor import RestartPolicy, Supervisor

    # the request fields name their flags; ServeConfig checks the rest
    watched = _request(args)
    config = ServeConfig(
        workload=watched.workload,
        engine=watched.engine,
        slo=watched.slo,
        interval_s=args.interval,
        validate_every=args.validate_every,
        repeats=watched.repeats,
        seed=watched.seed,
        downsample=watched.downsample,
        store=args.store,
        rundir=args.rundir or DEFAULT_RUNDIR,
        run_id=args.run_id,
        workers=args.workers,
        queue_depth=args.queue_depth,
    )

    if args.control:
        client = ServiceClient(
            config.socket_path, token=args.token, label="cli",
        )
        try:
            reply = client.call(args.control, **_control_request(args))
        except ServiceError as exc:
            raise UsageError(diagnose_unreachable(
                config.socket_path, config.heartbeat_path, exc,
            )) from exc
        if args.control == "metrics" and reply.get("ok"):
            sys.stdout.write(reply.get("prometheus", ""))
        else:
            print(_json.dumps(reply, indent=1, sort_keys=True))
        return 0 if reply.get("ok") else 1

    if args.no_supervise:
        # in-process, with its own telemetry session so the socket's
        # `metrics` op has a live registry to export; TerminationSignal
        # unwinds through service cleanup and maps to 128 + signum
        log.info("serving (unsupervised): %s every %gs",
                 args.workload, args.interval)
        return run_service(config, max_ticks=args.max_ticks)

    policy = RestartPolicy(
        max_restarts=args.max_restarts,
        backoff_base_s=args.backoff_base,
    )
    supervisor = Supervisor(
        _service_child, args=(config, args.max_ticks), policy=policy,
        control_socket=config.socket_path,
    )
    # SIGTERM/SIGINT stop the supervisor (which SIGTERMs the child so
    # the service unwinds gracefully); record the signal for the exit
    # code convention
    import signal as _signal

    signaled: list[int] = []

    def _stop(signum, frame):  # pragma: no cover - exercised in drills
        signaled.append(signum)
        supervisor.stop()

    previous = {
        s: _signal.signal(s, _stop)
        for s in (_signal.SIGTERM, _signal.SIGINT)
    }
    log.info("serving (supervised, <=%d restarts): %s every %gs",
             args.max_restarts, args.workload, args.interval)
    try:
        code = supervisor.run()
    finally:
        for s, handler in previous.items():
            _signal.signal(s, handler)
    if signaled:
        return 128 + signaled[0]
    return code


def _cmd_obs(args) -> int:
    from repro.telemetry.render import RunView, render_run, to_prometheus

    if args.top < 1:
        raise UsageError(f"--top must be >= 1, got {args.top}")
    try:
        view = RunView.load(args.path)
    except OSError as exc:
        raise UsageError(f"cannot read {args.path}: {exc}") from exc
    for problem in view.problems:
        log.warning("%s", problem)
    if args.prom:
        sys.stdout.write(to_prometheus(view))
        return 0
    print(render_run(view, top=args.top))
    return 0


_COMMANDS = {
    "workloads": _cmd_workloads,
    "profile": _cmd_profile,
    "compare": _cmd_compare,
    "pricing": _cmd_pricing,
    "drift": _cmd_drift,
    "retier": _cmd_retier,
    "multitier": _cmd_multitier,
    "sweep": _cmd_sweep,
    "cache": _cmd_cache,
    "guard": _cmd_guard,
    "serve": _cmd_serve,
    "obs": _cmd_obs,
}

#: Long-running commands that own releasable resources (a warm worker
#: pool, shared-memory trace segments, an open store): SIGTERM/SIGINT
#: must unwind their ``finally`` blocks, not kill the process mid-write.
_GRACEFUL_COMMANDS = frozenset({"sweep", "serve"})


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Conventions (documented in ``docs/GUARD.md``): 0 success, 2 for any
    usage or configuration error (printed as one clean ``error:`` line,
    never a traceback), and for ``guard`` additionally 1 = warnings and
    3 = action needed.
    """
    args = _build_parser().parse_args(argv)
    _configure_logging(args.verbose, args.quiet)
    try:
        if args.command in _GRACEFUL_COMMANDS:
            code = _run_graceful(args)
        else:
            code = _run(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout went away (``... | head -1``): point stdout
        # at devnull so the interpreter's exit flush cannot raise again
        sys.stdout = open(os.devnull, "w")
        return 128 + 13  # SIGPIPE, by the 128 + signum convention
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(args) -> int:
    """Run the subcommand, under a telemetry session when ``--obs`` asks."""
    sink = getattr(args, "obs", None)
    if not sink or args.command == "obs":
        return _COMMANDS[args.command](args)
    from repro import telemetry

    with telemetry.session(sink=sink) as tel:
        tel.run_attrs["command"] = args.command
        code = _COMMANDS[args.command](args)
    log.info("telemetry written: %s", sink)
    return code


def _run_graceful(args) -> int:
    """:func:`_run` with SIGTERM/SIGINT unwinding to ``128 + signum``."""
    from repro.service.signals import TerminationSignal, handle_termination

    try:
        with handle_termination():
            return _run(args)
    except TerminationSignal as sig:
        log.info("terminated by signal %d; resources released", sig.signum)
        return sig.exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
