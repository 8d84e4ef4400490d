"""The seven workloads.

Each workload is a closed loop over a seeded schedule of operations.
The constructor derives every input from ``--seed`` (workload seeds,
client seeds, SLOs, ``n_fast_keys`` draws, drift samples).  This
module is the first place ``repro`` gets imported, so timing its import
charges that of ``repro`` to ``setup_s``.  ``setup``/``teardown`` build
and drop whatever the first timed op needs and are repeated by
``run.py``; ``op`` is the timed operation; ``check`` verifies its
output off the clock; ``finish`` runs the post-phase verification and
the workload-scoped end-to-end metrics.  ``instrument``/``layer_metrics``/``probes`` serve
the traced pass (see ``probes.py``).

Shedding under flood is deliberately absent: it needs more in-flight
connections than ``nproc`` lets one generator process hold open, so
``serve_heavy`` measures saturation ok-throughput with ``nproc``
callers and never overruns the daemon's admission queue.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from harness import (
    OpRecord,
    Tracer,
    child_env,
    closed_loop,
    cpu_seconds,
    derive,
    percentile,
)

# the program under test -- imported here, on the setup clock
from repro.core import Mnemo, MnemoT, WorkloadDescriptor
from repro.core.slo import choice_at
from repro.guard import DriftDetector, ErrorBudget, RecommendationValidator
from repro.guard import rotate_hot_set
from repro.kvstore import DynamoLike, MemcachedLike, RedisLike
from repro.runner import ClientConfig, ExperimentRunner
from repro.service import control_call
from repro.service.advisor import choice_payload
from repro.ycsb import (
    TABLE_III_WORKLOADS,
    YCSBClient,
    generate_trace,
    workload_by_name,
)
from repro.ycsb.distributions import DistributionSpec
from repro.ycsb.presets import EXTRA_WORKLOADS
from repro.ycsb.sizes import SizeModel
from repro.ycsb.workload import WorkloadSpec

ENGINES = {
    "redis": RedisLike,
    "memcached": MemcachedLike,
    "dynamodb": DynamoLike,
}
#: The permissible-slowdown SLO of the profile workloads (Fig 9).
SLO = 0.10
#: Price factor p: cost_factor must stay within [P, 1].
P = 0.2
REPEATS = 3
#: The ROADMAP's "cold 5x12 sweep".
SPLIT_FRACTIONS = tuple(np.linspace(0.05, 0.9, 12).round(4))
ALL_PAIRS = tuple(
    (w.name, e)
    for w in (*TABLE_III_WORKLOADS, *EXTRA_WORKLOADS)
    for e in ENGINES
)
WATCHED = ("trending", "redis")
DRIFT_SAMPLE = 5_000


#: Consecutive parts a measured phase is cut into.  Throughput and CPU per
#: op are the medians over the parts, so a neighbour that disturbs the host
#: for less than half of a run does not move them.
SEGMENTS = 5


@dataclass
class Segment:
    """One consecutive part of a measured phase."""

    ok_ops: int
    #: summed op time shared among the callers
    busy_s: float
    cpu_s: float


@dataclass
class Measured:
    """What one measured phase produced."""

    records: list[OpRecord] = field(default_factory=list)
    segments: list[Segment] = field(default_factory=list)
    #: workload-scoped samples: metric name -> list of millisecond samples
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: ops attempted outside the main loop (warm re-spawns, first touches)
    side_records: list[OpRecord] = field(default_factory=list)


def report_digest(report, choice) -> str:
    """Content digest of a profiling report and the sizing chosen from it."""
    h = hashlib.sha256()
    curve = report.curve
    for arr in (curve.order, curve.fast_bytes, curve.cost_factor,
                curve.runtime_ns):
        h.update(np.ascontiguousarray(arr).view(np.uint8).data)
    h.update(repr((
        choice.n_fast_keys, choice.fast_bytes, choice.cost_factor,
        choice.est_throughput_ops_s, choice.slowdown,
    )).encode())
    return h.hexdigest()[:16]


def check_choice(report, choice, slo: float) -> str | None:
    """Advisor invariants every answer must hold (None = fine)."""
    if not P - 1e-12 <= choice.cost_factor <= 1.0 + 1e-12:
        return f"cost_factor {choice.cost_factor} outside [{P}, 1]"
    thr = report.curve.throughput_ops_s
    if thr[choice.n_fast_keys] < (1.0 - slo) * thr[-1] * (1 - 1e-12):
        return (
            f"chosen split {choice.n_fast_keys} misses the {slo:.0%} SLO "
            "on its own curve"
        )
    return None


class Workload:
    """Base class: one closed loop over ``self.schedule``."""

    name = ""
    threads = 1
    #: False when an op runs in another process, where no span can follow
    in_process = True

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.schedule: list = []
        #: verification problems found outside a timed op
        self.errors: list[str] = []
        self._digests: dict = {}

    # -- lifecycle ---------------------------------------------------------

    def setup(self) -> None:
        """Build what the first timed op needs (repeated by the driver)."""

    def teardown(self) -> None:
        """Drop what :meth:`setup` built."""

    def live_pids(self) -> tuple[int, ...]:
        """Children still running whose CPU the phase must account."""
        return ()

    # -- the measured phase --------------------------------------------------

    #: optional ``prepare(i, item) -> item`` building an op's input off the clock
    prepare = None

    def op(self, i: int, item):
        raise NotImplementedError

    def check(self, i: int, item, result) -> str | None:
        return None

    def measure(self, seconds: float, tracer: Tracer | None = None,
                first_index: int = 0) -> Measured:
        out = Measured()
        for _ in range(SEGMENTS):
            cpu0 = cpu_seconds(self.live_pids())
            records = closed_loop(
                self.op, self.check, self.schedule, seconds / SEGMENTS,
                self.threads, tracer=tracer, prepare=self.prepare,
                first_index=first_index + len(out.records),
            )
            cpu = cpu_seconds(self.live_pids()) - cpu0
            out.records.extend(records)
            out.segments.append(Segment(
                sum(r.error is None for r in records),
                sum(r.seconds for r in records) / self.threads, cpu,
            ))
        return out

    def kind(self, item):
        """What sort of op *item* is; latency is summarised per kind."""
        return None

    def finish(self) -> dict[str, tuple[float, int]]:
        """Post-phase verification; workload-scoped metrics as (value, n)."""
        return {}

    def same_as_before(self, key, digest: str) -> str | None:
        """Repeated inputs must reproduce their first output exactly."""
        first = self._digests.setdefault(key, digest)
        if first != digest:
            return f"output for {key!r} changed between repeats"
        return None

    # -- the traced pass -----------------------------------------------------

    def instrument(self, tracer: Tracer) -> None:
        """Wrap the public calls this workload makes into each layer."""

    def layer_metrics(self, table: dict, everything: dict, spans,
                      n_ops: int) -> dict[str, float]:
        """Per-layer metrics from the traced phase.

        *table* is :meth:`Tracer.self_times` over the spans inside the
        *n_ops* traced ops, *everything* the same over all spans (so
        with what :meth:`finish` called), *spans* the raw list.
        """
        return {}

    def probes(self, measured: Measured) -> dict[str, float]:
        """Layer probes that call public functions directly."""
        return {}


# -- profile_cold / profile_llc ------------------------------------------------


class _ProfileWorkload(Workload):
    """In-process trace generation, profile and SLO choice, fresh objects."""

    use_llc = False

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        self.client_seed = derive(seed, "client")
        #: last (trace, report, choice) per (spec name, engine), Mnemo only
        self.last: dict = {}

    def _rounds(self, specs, engines_by_round) -> None:
        rng = random.Random(derive(self.seed, "order"))
        for r, engines in enumerate(engines_by_round):
            cls = Mnemo if r % 2 == 0 else MnemoT
            cells = [(spec, engine, cls) for spec in specs for engine in engines]
            rng.shuffle(cells)
            self.schedule.extend(cells)

    def client(self) -> YCSBClient:
        return YCSBClient(
            repeats=REPEATS, seed=self.client_seed, use_llc=self.use_llc,
        )

    def kind(self, item):
        # host time follows the trace and the pattern mode, not the engine
        spec, _, cls = item
        return spec.name, cls.__name__

    def op(self, i, item):
        spec, engine, cls = item
        trace = generate_trace(spec)
        mnemo = cls(engine_factory=ENGINES[engine], client=self.client())
        report = mnemo.profile(trace, accuracy="simulate")
        choice = report.choose(SLO)
        return trace, report, choice

    def check(self, i, item, result):
        spec, engine, cls = item
        trace, report, choice = result
        if cls is Mnemo:
            self.last[(spec.name, engine)] = result
        return check_choice(report, choice, SLO) or self.same_as_before(
            (spec.name, engine, cls.__name__), report_digest(report, choice),
        )

    def instrument(self, tracer: Tracer) -> None:
        from repro.core.estimate import EstimateEngine
        from repro.core.pattern import PatternEngine
        from repro.core.report import MnemoReport
        from repro.core.sensitivity import SensitivityEngine
        from repro.memsim import analytic
        from repro.memsim.cache import LLCModel
        from repro.ycsb import generator

        tracer.instrument(generator, "generate_trace", "ycsb.generate_trace")
        tracer.instrument(
            WorkloadDescriptor, "from_trace", "ycsb.descriptor",
        )
        tracer.instrument(Mnemo, "profile", "core.profile")
        tracer.instrument(
            SensitivityEngine, "measure", "core.sensitivity.measure",
        )
        tracer.instrument(PatternEngine, "analyze", "core.pattern.analyze")
        tracer.instrument(EstimateEngine, "estimate", "core.estimate.estimate")
        tracer.instrument(MnemoReport, "choose", "core.slo.choose")
        tracer.instrument(
            YCSBClient, "execute_placements", "memsim.kernel.execute_placements",
            count=lambda a, k, out: {
                "placements": len(out),
                "sim_requests": len(out) * a[1].n_requests,
            },
        )
        tracer.instrument(
            LLCModel, "process", "memsim.cache.process",
            count=lambda a, k, out: {
                "requests": int(out.size), "hits": int(out.sum()),
            },
        )
        tracer.instrument(
            analytic, "predict_baselines", "memsim.analytic.predict_baselines",
        )

    def layer_metrics(self, table, everything, spans, n_ops):
        def self_ms(name: str) -> float:
            return table.get(name, {}).get("self_s", 0.0) * 1e3 / n_ops

        kernel = table.get("memsim.kernel.execute_placements", {})
        cache = table.get("memsim.cache.process", {})
        gen = table.get("ycsb.generate_trace", {})
        profile = table.get("core.profile", {})
        out = {
            "ycsb.generate_trace_ms": self_ms("ycsb.generate_trace"),
            "ycsb.generate_trace_calls": gen.get("calls", 0) / n_ops,
            "ycsb.descriptor_ms": self_ms("ycsb.descriptor"),
            "memsim.kernel.baselines_ms": self_ms(
                "memsim.kernel.execute_placements"),
            "memsim.kernel.placements": kernel.get("counts", {}).get(
                "placements", 0) / n_ops,
            "memsim.cache.process_ms": self_ms("memsim.cache.process"),
            "core.sensitivity.measure_ms": self_ms("core.sensitivity.measure"),
            "core.pattern.analyze_ms": self_ms("core.pattern.analyze"),
            "core.estimate.estimate_ms": self_ms("core.estimate.estimate"),
            "core.slo.choose_us": self_ms("core.slo.choose") * 1e3,
            "core.profile_total_ms": profile.get("total_s", 0.0) * 1e3 / n_ops,
        }
        sim = kernel.get("counts", {}).get("sim_requests", 0)
        if sim:
            out["memsim.kernel.ns_per_sim_request"] = (
                kernel["self_s"] * 1e9 / sim
            )
        requests = cache.get("counts", {}).get("requests", 0)
        if requests:
            out["memsim.cache.ns_per_request"] = cache["self_s"] * 1e9 / requests
            out["memsim.cache.hit_ratio"] = cache["counts"]["hits"] / requests
        return out


class ProfileCold(_ProfileWorkload):
    """Table III presets x three engines, no store, LLC off."""

    name = "profile_cold"

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        specs = [
            w.with_seed(derive(seed, w.name)) for w in TABLE_III_WORKLOADS
        ]
        self._rounds(specs, [tuple(ENGINES)] * 2)

    def finish(self):
        # Fig 8a: estimated vs replayed throughput at the chosen split
        errors = []
        for (_, engine), (trace, report, choice) in sorted(self.last.items()):
            validator = RecommendationValidator(
                ENGINES[engine], client=self.client(),
            )
            verdict = validator.validate(report.curve, choice, trace)
            point = next(
                p for p in verdict.points
                if p.n_fast_keys == choice.n_fast_keys
            )
            errors.append(point.throughput_error_pct)
        if not errors:
            return {}
        return {"estimate_err_pct": (percentile(errors, 50.0), len(errors))}

    def probes(self, measured):
        from probes import telemetry_overhead_pct

        return {
            "telemetry.session_overhead_pct": telemetry_overhead_pct(self),
        }


def llc_specs(seed: int) -> list[tuple[WorkloadSpec, str]]:
    """Six specs, one per LLC code path and read/write mix, with regime tags.

    ``evict``: the working set overflows the 12 MB LLC, so the exact
    sequential replay runs; ``fit``: it fits, so the vectorized
    mixed-size path runs (with scans); ``fixed``: one record size, so
    the fixed-size slot path runs.
    """
    constant = WorkloadSpec(
        name="constant_10k",
        distribution=DistributionSpec(name="scrambled_zipfian"),
        read_fraction=0.9,
        size_model=SizeModel(name="constant_10k", median_bytes=10_240,
                             sigma=0.0),
        n_keys=20_000,
    )
    tagged = [
        (workload_by_name("trending_preview"), "evict"),
        (workload_by_name("edit_thumbnail"), "evict"),
        (workload_by_name("write_burst").scaled(n_keys=50_000), "evict"),
        (workload_by_name("uniform_cache").scaled(n_keys=50_000), "evict"),
        (workload_by_name("feed_scroll").scaled(n_keys=1_000), "fit"),
        (constant, "fixed"),
    ]
    return [
        (spec.with_seed(derive(seed, spec.name)), regime)
        for spec, regime in tagged
    ]


class ProfileLLC(_ProfileWorkload):
    """The same op with the LLC model on, over the six LLC specs."""

    name = "profile_llc"
    use_llc = True

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        tagged = llc_specs(seed)
        self.regime = {spec.name: regime for spec, regime in tagged}
        # one engine per round, so six rounds cover engine x advisor class
        self._rounds(
            [spec for spec, _ in tagged], [(e,) for e in ENGINES] * 2,
        )

    def finish(self):
        # the analytic path must track the simulated one on every spec
        worst, seen = [], set()
        for (name, engine), (trace, report, _) in sorted(self.last.items()):
            if name in seen:
                continue
            seen.add(name)
            mnemo = Mnemo(engine_factory=ENGINES[engine], client=self.client())
            predicted = mnemo.profile(trace, accuracy="analytic").baselines
            measured = report.baselines
            worst.append(max(
                abs(predicted.fast.runtime_ns - measured.fast.runtime_ns)
                / measured.fast.runtime_ns,
                abs(predicted.slow.runtime_ns - measured.slow.runtime_ns)
                / measured.slow.runtime_ns,
            ) * 100.0)
        if not worst:
            return {}
        return {"analytic_err_pct": (max(worst), len(worst))}

    def layer_metrics(self, table, everything, spans, n_ops):
        out = super().layer_metrics(table, everything, spans, n_ops)
        # LLCModel.process per op, split by the regime of the op's spec
        by_regime: dict[str, list[float]] = {}
        ops: dict[str, set] = {}
        for sp in spans:
            if sp.op is None:
                continue
            spec = self.schedule[sp.op % len(self.schedule)][0]
            regime = self.regime[spec.name]
            ops.setdefault(regime, set()).add(sp.op)
            if sp.name == "memsim.cache.process":
                by_regime.setdefault(regime, []).append(sp.duration)
        for regime, durations in by_regime.items():
            out[f"memsim.cache.{regime}_regime_ms"] = (
                sum(durations) * 1e3 / len(ops[regime])
            )
        analytic = everything.get("memsim.analytic.predict_baselines")
        if analytic:
            out["memsim.analytic.predict_ms"] = (
                analytic["total_s"] * 1e3 / analytic["calls"]
            )
        return out


# -- cli_profile ---------------------------------------------------------------


class CliProfile(Workload):
    """One ``python -m repro profile`` subprocess per op, then warm re-runs."""

    name = "cli_profile"
    in_process = False
    #: share of the run spent on cold spawns; the rest re-runs them warm
    COLD_SHARE = 0.65

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        rng = random.Random(derive(seed, "order"))
        pairs = [(w.name, e) for w in TABLE_III_WORKLOADS for e in ENGINES]
        rng.shuffle(pairs)
        self.schedule = [
            (w, e, derive(seed, f"client/{w}/{e}")) for w, e in pairs
        ]
        self.env = child_env()
        self.stdout: dict[int, str] = {}

    def setup(self) -> None:
        (self.scratch / "cli").mkdir(parents=True, exist_ok=True)

    def teardown(self) -> None:
        shutil.rmtree(self.scratch / "cli", ignore_errors=True)

    def argv(self, i: int, item) -> list[str]:
        workload, engine, client_seed = item
        return [
            "profile", "--workload", workload, "--engine", engine,
            "--seed", str(client_seed),
            "--cache-dir", str(self.scratch / "cli" / f"{i}.db"),
        ]

    def op(self, i, item):
        return subprocess.run(
            [sys.executable, "-m", "repro", *self.argv(i, item)],
            env=self.env, capture_output=True, text=True, check=False,
        )

    def check(self, i, item, result):
        if result.returncode != 0:
            return f"exit {result.returncode}: {result.stderr.strip()[-200:]}"
        if "Mnemo report" not in result.stdout:
            return "stdout carries no report"
        first = self.stdout.setdefault(i, result.stdout)
        if first != result.stdout:
            return "warm run printed a different report than the cold run"
        return None

    def measure(self, seconds, tracer=None, first_index=0):
        cold = super().measure(seconds * self.COLD_SHARE, tracer, first_index)
        # the same indices again: same commands, against the stores the
        # cold spawns just populated
        warm = closed_loop(
            self.op, self.check, self.schedule,
            seconds * (1.0 - self.COLD_SHARE), first_index=first_index,
            max_ops=len(cold.records),
        )
        cold.side_records = warm
        cold.samples["cli_warm_p50_ms"] = [
            r.seconds * 1e3 for r in warm if r.error is None
        ]
        return cold

    def finish(self):
        # the subprocess must print what the same call prints in-process
        if not self.stdout:
            return {}
        i = min(self.stdout)
        text = cli_main_inproc(self.argv(i, self.schedule[i % len(self.schedule)]))
        if text != self.stdout[i]:
            self.errors.append(
                "in-process cli.main printed a different report than the "
                "subprocess"
            )
        return {}

    def probes(self, measured):
        from probes import cli_probes

        return cli_probes(self, measured)


def cli_main_inproc(argv: list[str]) -> str:
    """stdout of ``repro.cli.main(argv)`` called in this process."""
    from repro.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"repro.cli.main{argv} returned {code}")
    return buf.getvalue()


# -- sweep_cold / sweep_warm ---------------------------------------------------


class _SweepWorkload(Workload):
    """A 5 x 12 split sweep through ``ExperimentRunner`` on two workers."""

    provenance = ""

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        self.workloads = [
            w.with_seed(derive(seed, w.name)) for w in TABLE_III_WORKLOADS
        ]
        self.specs = self.grid(SPLIT_FRACTIONS)
        self.client_config = ClientConfig(
            repeats=REPEATS, seed=derive(seed, "client"),
        )
        self.schedule = [None]
        self.reference = None  # results every later sweep must reproduce

    def grid(self, fractions, workloads=None):
        return ExperimentRunner.grid(
            self.workloads if workloads is None else workloads,
            engines=("redis",), placements=("split",),
            fast_fractions=tuple(fractions),
        )

    def sweep(self, db: Path | None, specs=None, workers: int = 2):
        runner = ExperimentRunner(
            cache=None if db is None else str(db), client=self.client_config,
        )
        try:
            return runner.sweep(
                self.specs if specs is None else specs, workers=workers,
            )
        finally:
            runner.close()
            if runner.cache is not None:
                runner.cache.close()

    def check(self, i, item, outcome):
        if not outcome.ok:
            return f"sweep failed: {outcome.report.summary()}"
        wrong = set(outcome.provenance) - {self.provenance}
        if wrong:
            return f"provenance {sorted(map(str, wrong))}, want {self.provenance}"
        if self.reference is None:
            self.reference = outcome.results
        elif outcome.results != self.reference:
            return "sweep results differ from the first sweep's"
        return None

    def instrument(self, tracer: Tracer) -> None:
        tracer.instrument(ExperimentRunner, "__init__", "runner.init")
        tracer.instrument(ExperimentRunner, "sweep", "runner.sweep")
        tracer.instrument(ExperimentRunner, "close", "runner.close")
        tracer.instrument(ExperimentRunner, "trace_for", "runner.trace_for")
        tracer.instrument(
            ExperimentRunner, "spec_fingerprint", "runner.spec_fingerprint",
        )
        # both ways into the simulator, so that "the kernel does nothing
        # in this process" is observed rather than assumed
        from repro.memsim.kernel import BatchKernel

        tracer.instrument(YCSBClient, "execute", "memsim.kernel.execute")
        tracer.instrument(BatchKernel, "run", "memsim.kernel.run")

    def layer_metrics(self, table, everything, spans, n_ops):
        def row(name: str) -> dict:
            return table.get(name, {"self_s": 0.0, "calls": 0})

        kernel = [row("memsim.kernel.execute"), row("memsim.kernel.run")]
        return {
            "runner.trace_for_ms": row("runner.trace_for")["self_s"] * 1e3 / n_ops,
            "runner.close_ms": row("runner.close")["self_s"] * 1e3 / n_ops,
            "memsim.kernel.baselines_ms": sum(
                r["self_s"] for r in kernel) * 1e3 / n_ops,
            "memsim.kernel.placements": sum(r["calls"] for r in kernel) / n_ops,
        }


def remove_db(db: Path) -> None:
    """Delete a SQLite store with its WAL and shared-memory files."""
    for suffix in ("", "-wal", "-shm"):
        Path(f"{db}{suffix}").unlink(missing_ok=True)


class SweepCold(_SweepWorkload):
    """Fresh store, fresh runner, pool spawn, 60 computed cells, close."""

    name = "sweep_cold"
    provenance = "computed"

    def setup(self) -> None:
        (self.scratch / "sweep").mkdir(parents=True, exist_ok=True)

    def teardown(self) -> None:
        shutil.rmtree(self.scratch / "sweep", ignore_errors=True)

    def op(self, i, item):
        return self.sweep(self.scratch / "sweep" / f"{i}.db")

    def check(self, i, item, outcome):
        remove_db(self.scratch / "sweep" / f"{i}.db")
        return super().check(i, item, outcome)

    def probes(self, measured):
        from probes import runner_probes

        return runner_probes(self)


class SweepWarm(_SweepWorkload):
    """The same 60 cells recalled from a store populated in set-up."""

    name = "sweep_warm"
    provenance = "cache"

    def setup(self) -> None:
        (self.scratch / "sweep").mkdir(parents=True, exist_ok=True)
        self.db = self.scratch / "sweep" / "warm.db"
        cold = self.sweep(self.db)
        if not cold.ok or set(cold.provenance) != {"computed"}:
            raise RuntimeError("could not populate the warm store")
        # warm answers must be bit-identical to these cold ones
        self.reference = cold.results

    def teardown(self) -> None:
        shutil.rmtree(self.scratch / "sweep", ignore_errors=True)

    def op(self, i, item):
        return self.sweep(self.db)

    def instrument(self, tracer: Tracer) -> None:
        from repro.runner import cache as codecs
        from repro.runner import fingerprint
        from repro.store import SQLiteStore

        super().instrument(tracer)
        tracer.instrument(SQLiteStore, "__init__", "store.open")
        tracer.instrument(SQLiteStore, "get_result", "store.get_result")
        tracer.instrument(SQLiteStore, "get_trace", "store.get_trace")
        tracer.instrument(codecs, "decode_result", "store.codec.decode_result")
        tracer.instrument(codecs, "decode_trace", "store.codec.decode_trace")
        tracer.instrument(
            fingerprint, "trace_fingerprint", "runner.fingerprint.trace",
        )
        tracer.instrument(
            fingerprint, "experiment_fingerprint_parts",
            "runner.fingerprint.experiment",
        )

    def probes(self, measured):
        from probes import store_probes

        return store_probes(self)


# -- serve_warm / serve_heavy --------------------------------------------------


class Daemon:
    """One ``python -m repro serve --no-supervise`` subprocess."""

    def __init__(self, rundir: Path, db: Path, seed: int):
        self.rundir = rundir
        self.socket = rundir / "control.sock"
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--no-supervise",
                "--store", str(db), "--interval", "3600",
                "--validate-every", "0", "--seed", str(seed),
                "--rundir", str(rundir),
            ],
            env=child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        try:
            self._await_socket()
            self.spawn_to_socket_s = time.perf_counter() - t0
            t1 = time.perf_counter()
            reply = self.call({"op": "size"}, timeout=120.0)
            self.first_size_s = time.perf_counter() - t1
            if not reply.get("ok"):
                raise RuntimeError(f"first size failed: {reply}")
        except BaseException:
            self.stop()
            raise

    def _await_socket(self) -> None:
        deadline = time.perf_counter() + 60.0
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited {self.proc.returncode}: "
                    f"{self.proc.stderr.read().decode()[-300:]}"
                )
            if self.socket.exists():
                try:
                    if self.call({"op": "ping"}, timeout=1.0).get("ok"):
                        return
                except OSError:
                    pass
            time.sleep(0.002)
        raise RuntimeError("daemon socket never answered")

    def call(self, request: dict, timeout: float = 60.0) -> dict:
        return control_call(self.socket, request, timeout=timeout)

    def stop(self) -> None:
        """Ask for a graceful stop, then make sure the process is gone."""
        if self.proc.poll() is None:
            try:
                self.call({"op": "shutdown"}, timeout=5.0)
            except (OSError, ValueError):
                self.proc.terminate()
            try:
                self.proc.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stderr.close()


class _ServeWorkload(Workload):
    """Requests over the unix socket of a live daemon, one connection each."""

    threads = 2
    in_process = False

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        self.daemon_seed = derive(seed, "daemon")
        self.daemon: Daemon | None = None
        self._generation = 0

    def setup(self) -> None:
        self._generation += 1
        home = self.scratch / f"serve{self._generation}"
        home.mkdir(parents=True, exist_ok=True)
        self.home = home
        self.daemon = Daemon(home / "run", home / "store.db", self.daemon_seed)
        self.prime()

    def prime(self) -> None:
        """Whatever else must be warm before the first timed request."""

    def teardown(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None
        shutil.rmtree(self.home, ignore_errors=True)

    def live_pids(self):
        return (self.daemon.proc.pid,) if self.daemon is not None else ()

    def op(self, i, item):
        return self.daemon.call(item)

    @staticmethod
    def refused(what: str, reply: dict) -> str | None:
        """Why *reply* is not a fresh ok answer (None when it is)."""
        if reply.get("ok") and not reply.get("stale"):
            return None
        return f"{what} refused or stale: {json.dumps(reply)[:200]}"

    def reference_report(self, workload: str, engine: str):
        """The report the daemon must have built, rebuilt in this process."""
        trace = generate_trace(workload_by_name(workload))
        mnemo = Mnemo(
            engine_factory=ENGINES[engine],
            client=YCSBClient(repeats=REPEATS, seed=self.daemon_seed),
        )
        return trace, mnemo, mnemo.profile(WorkloadDescriptor.from_trace(trace))


class ServeWarm(_ServeWorkload):
    """Warm ``size`` over eight primed pairs x three SLOs."""

    name = "serve_warm"

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        rng = random.Random(derive(seed, "pairs"))
        adhoc = rng.sample([p for p in ALL_PAIRS if p != WATCHED], 7)
        self.pairs = [WATCHED, *adhoc]
        self.slos = sorted(round(rng.uniform(0.02, 0.30), 3) for _ in range(3))
        self.schedule = [
            {"op": "size", "workload": w, "engine": e, "slo": slo}
            for w, e in self.pairs for slo in self.slos
        ]
        rng.shuffle(self.schedule)
        self.replies: dict[str, dict] = {}

    def prime(self) -> None:
        for workload, engine in self.pairs[1:]:
            reply = self.daemon.call(
                {"op": "size", "workload": workload, "engine": engine},
            )
            if not reply.get("ok"):
                raise RuntimeError(f"priming {workload}/{engine}: {reply}")

    def check(self, i, item, reply):
        problem = self.refused("size", reply)
        if problem:
            return problem
        key = json.dumps(item, sort_keys=True)
        self.replies.setdefault(key, reply)
        return self.same_as_before(
            key, json.dumps(reply["choice"], sort_keys=True),
        )

    def finish(self):
        # a sampled socket answer must equal the in-process advisor's
        rng = random.Random(derive(self.seed, "sample"))
        for key in rng.sample(sorted(self.replies), min(2, len(self.replies))):
            request, reply = json.loads(key), self.replies[key]
            _, _, report = self.reference_report(
                request["workload"], request["engine"],
            )
            want = choice_payload(report.choose(request["slo"]))
            got_ops = reply["fastmem_only_ops_s"]
            want_ops = float(report.baselines.fast.throughput_ops_s)
            if reply["choice"] != want or got_ops != want_ops:
                self.errors.append(
                    f"socket size for {key} differs from Mnemo.profile().choose()"
                )
        return {}

    def probes(self, measured):
        from probes import service_probes

        return service_probes(self, measured)


class ServeHeavy(_ServeWorkload):
    """First-touch ``size`` for every unprimed pair, then validate/drift."""

    name = "serve_heavy"
    #: validate, validate, drift, validate, drift: 60 % / 40 % in any window of 5
    PATTERN = ("validate", "validate", "drift", "validate", "drift")

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        self.planning = generate_trace(workload_by_name(WATCHED[0]))
        rng = random.Random(derive(seed, "pairs"))
        self.first_touch = [p for p in ALL_PAIRS if p != WATCHED]
        rng.shuffle(self.first_touch)
        self.schedule = list(self.PATTERN)
        self.sampled: dict[str, tuple[dict, dict]] = {}

    def prime(self) -> None:
        # first validate/drift pay lazy imports users meet once per daemon
        for request in (self.prepare(-1, "validate"), self.prepare(-1, "drift")):
            reply = self.daemon.call(request)
            if not reply.get("ok"):
                raise RuntimeError(f"priming {request['op']}: {reply}")

    def kind(self, item):
        return item

    def prepare(self, i: int, kind: str) -> dict:
        """Request *i*: a fresh seeded split, or a fresh rotated key sample."""
        rng = random.Random(derive(self.seed, f"{kind}/{i}"))
        n_keys = self.planning.n_keys
        if kind == "validate":
            return {"op": "validate", "n_fast_keys": rng.randrange(1, n_keys)}
        rotated = rotate_hot_set(self.planning, rng.randrange(1, n_keys))
        start = rng.randrange(0, self.planning.n_requests - DRIFT_SAMPLE)
        keys = rotated.keys[start:start + DRIFT_SAMPLE]
        return {"op": "drift", "keys": keys.tolist()}

    def check(self, i, request, reply):
        kind = request["op"]
        problem = self.refused(kind, reply)
        if problem:
            return problem
        if kind == "validate":
            if reply["n_fast_keys"] != request["n_fast_keys"]:
                return "validate answered for another split"
        elif reply["n_live_requests"] != DRIFT_SAMPLE:
            return "drift scored another sample size"
        self.sampled.setdefault(kind, (request, reply))
        return None

    def measure(self, seconds, tracer=None, first_index=0):
        t0 = time.perf_counter()
        touches = closed_loop(
            lambda i, pair: self.daemon.call(
                {"op": "size", "workload": pair[0], "engine": pair[1]}),
            lambda i, pair, reply: self.refused("first-touch size", reply),
            self.first_touch, seconds, max_ops=len(self.first_touch),
        )
        left = max(0.5, seconds - (time.perf_counter() - t0))
        mixed = super().measure(left, tracer, first_index)
        mixed.side_records = touches
        mixed.samples["size_cold_p50_ms"] = [
            r.seconds * 1e3 for r in touches if r.error is None
        ]
        by_kind: dict[str, list[float]] = {"validate": [], "drift": []}
        for r in mixed.records:
            if r.error is None:
                by_kind[self.PATTERN[r.index % len(self.PATTERN)]].append(
                    r.seconds * 1e3)
        mixed.samples["service.validate_ms"] = by_kind["validate"]
        mixed.samples["service.drift_ms"] = by_kind["drift"]
        return mixed

    def finish(self):
        # sampled socket answers must equal the in-process guard's
        if "validate" in self.sampled:
            request, reply = self.sampled["validate"]
            _, mnemo, report = self.reference_report(*WATCHED)
            validator = mnemo.guard_loop(budget=ErrorBudget()).validator
            verdict = validator.validate(
                report.curve,
                choice_at(report.curve, request["n_fast_keys"],
                          max_slowdown=SLO),
                self.planning,
            )
            # the fingerprint names the verdict-cache row; only the daemon has one
            want = {**json.loads(json.dumps(verdict.to_payload())),
                    "fingerprint": None}
            got = {**reply["verdict"], "fingerprint": None}
            if want != got:
                self.errors.append(
                    "socket validate differs from the in-process validator"
                )
        if "drift" in self.sampled:
            request, reply = self.sampled["drift"]
            drift = DriftDetector(self.planning).observe(
                np.asarray(request["keys"], dtype=np.int64)).report()
            want = [(s.metric, float(s.value)) for s in drift.signals]
            got = [(s["metric"], s["value"]) for s in reply["signals"]]
            if want != got or drift.level != reply["level"]:
                self.errors.append(
                    "socket drift differs from the in-process detector"
                )
        return {}

    def probes(self, measured):
        from probes import guard_probes

        return guard_probes(self, measured)


BY_NAME: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (CliProfile, ProfileCold, ProfileLLC, SweepCold, SweepWarm,
                ServeWarm, ServeHeavy)
}
