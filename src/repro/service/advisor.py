"""The served advisor: Mnemo sizing/validation/drift behind the socket ops.

:class:`ServedAdvisor` owns everything one ``mnemo serve`` daemon knows
about advice: the planning trace, the profiled
:class:`~repro.core.report.MnemoReport` it watches, the guard loop that
re-checks it every tick, and the ad-hoc profiles built for ``size``
requests naming other workloads.  The service
(:mod:`repro.service.serve`) stays a pure request router; this module
is where sizing actually happens.

Two invariants shape the code:

- **Bit-identity with the CLI.**  A ``size`` request runs the exact
  profiling path of ``mnemo profile`` — trace generation, optional
  downsample, :meth:`WorkloadDescriptor.from_trace`, then
  :meth:`Mnemo.profile` with the same client settings — so a response
  served over the socket is numerically identical to the one-shot CLI
  answer, and both hit the same content-addressed store entries.
- **One simulator, many threads.**  The watched ``Mnemo``'s measuring
  client memoizes per-trace state and is not thread-safe, so every use
  of it (ticks, validation replays, watched-profile reads) serialises
  on one lock.  Ad-hoc profiles build their own engine/client stack and
  only share the sqlite-backed result cache, which is fork- and
  thread-safe by design.

Hot reload swaps a fully-built replacement advisor atomically
(:meth:`GuardService.reload <repro.service.serve.GuardService>`);
in-flight requests keep the snapshot they dispatched against, so a
reload never drops or corrupts a request that already started.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict

from repro import telemetry
from repro.errors import ConfigurationError
from repro.service.requests import is_real, is_whole, require

#: Deadline checkpoint labels (also the ``where`` field of structured
#: ``deadline_exceeded`` responses).
CHECKPOINT_TRACE = "trace"
CHECKPOINT_PROFILE = "profile"
CHECKPOINT_VALIDATE = "validate"


def choice_payload(choice) -> dict:
    """A :class:`~repro.core.slo.SizingChoice` as a JSON-safe dict."""
    body = asdict(choice)
    body["fast_bytes"] = float(body["fast_bytes"])
    body["n_fast_keys"] = int(body["n_fast_keys"])
    body["savings_percent"] = float(choice.savings_percent)
    return body


class ServedAdvisor:
    """Advice engine behind one ``mnemo serve`` daemon.

    Parameters
    ----------
    config:
        The :class:`~repro.service.serve.ServeConfig` in force.
    cache:
        The shared result cache (an open
        :class:`~repro.store.SQLiteStore`, a path, or None) every
        profile run memoizes through.
    """

    def __init__(self, config, cache=None):
        self.config = config
        self.cache = cache if cache is not None else config.store
        self.loaded_unix: float | None = None
        self._sim_lock = threading.Lock()
        self._load_lock = threading.Lock()
        self._mnemo = None
        self._planning = None
        self._descriptor = None
        self._report = None
        self._loop = None
        self._adhoc: dict[tuple[str, str], object] = {}
        self._engines = self._engine_table()

    @staticmethod
    def _engine_table() -> dict:
        from repro.kvstore.dynamolike import DynamoLike
        from repro.kvstore.memcachedlike import MemcachedLike
        from repro.kvstore.redislike import RedisLike

        return {
            "redis": RedisLike,
            "memcached": MemcachedLike,
            "dynamodb": DynamoLike,
        }

    # -- loading -------------------------------------------------------------

    @property
    def loaded(self) -> bool:
        """True once the watched profile has been measured."""
        return self._report is not None

    def _build_trace(self, workload: str):
        """The CLI's planning-trace path: generate, then downsample."""
        from repro.ycsb.generator import generate_trace
        from repro.ycsb.presets import workload_by_name
        from repro.ycsb.sampling import downsample

        trace = generate_trace(workload_by_name(workload))
        if self.config.downsample and self.config.downsample > 1:
            trace = downsample(
                trace, factor=self.config.downsample, seed=self.config.seed,
            )
        return trace

    def _build_mnemo(self, engine: str):
        """One advisor stack with the daemon's measurement settings."""
        from repro.core.mnemo import Mnemo
        from repro.ycsb.client import YCSBClient

        if engine not in self._engines:
            raise ConfigurationError(
                f"unknown engine {engine!r}; expected one of "
                f"{sorted(self._engines)}"
            )
        return Mnemo(
            engine_factory=self._engines[engine],
            client=YCSBClient(
                repeats=self.config.repeats, seed=self.config.seed,
            ),
            cache=self.cache,
        )

    def ensure_loaded(self, deadline=None) -> "ServedAdvisor":
        """Measure the watched profile once (idempotent, thread-safe).

        Built lazily so constructing an advisor is cheap; the first
        tick or advice request pays for the profile, every later one
        reads the memo (or, across restarts, the shared store cache).
        """
        from repro.core.descriptor import WorkloadDescriptor
        from repro.guard.validator import ErrorBudget

        with self._load_lock:
            if self._report is not None:
                return self
            if deadline is not None:
                deadline.check(CHECKPOINT_TRACE)
            planning = self._build_trace(self.config.workload)
            descriptor = WorkloadDescriptor.from_trace(planning)
            if deadline is not None:
                deadline.check(CHECKPOINT_PROFILE)
            mnemo = self._build_mnemo(self.config.engine)
            with telemetry.span(
                "serve.load", workload=self.config.workload,
                engine=self.config.engine,
            ):
                report = mnemo.profile(descriptor)
            self._planning = planning
            self._descriptor = descriptor
            self._mnemo = mnemo
            self._report = report
            self._loop = mnemo.guard_loop(budget=ErrorBudget())
            self.loaded_unix = time.time()
            return self

    # -- the guard tick ------------------------------------------------------

    def tick(self, n: int) -> int:
        """Run guard tick *n*; returns the guard exit code (0/1/3)."""
        self.ensure_loaded()
        validate = (
            self.config.validate_every > 0
            and n % self.config.validate_every == 0
        )
        with self._sim_lock:
            outcome = self._loop.run(
                self._report, self._planning, live_trace=self._planning,
                max_slowdown=self.config.slo, validate=validate,
            )
        return outcome.exit_code

    # -- the ops -------------------------------------------------------------

    def size(self, workload: str | None = None, engine: str | None = None,
             slo: float | None = None, deadline=None) -> dict:
        """Serve a sizing recommendation (the ``size`` op).

        Defaults to the watched workload/engine/SLO; naming another
        workload or engine profiles it ad hoc through the same shared
        cache and memoizes the report for the daemon's lifetime.
        """
        require(workload is None or isinstance(workload, str),
                "workload", "a workload name", workload)
        require(engine is None or isinstance(engine, str),
                "engine", "an engine name", engine)
        require(slo is None or (is_real(slo) and 0 < slo < 1),
                "slo", "a number in (0, 1)", slo)
        workload = workload or self.config.workload
        engine = engine or self.config.engine
        slo = self.config.slo if slo is None else float(slo)
        watched = (
            workload == self.config.workload
            and engine == self.config.engine
        )
        if watched:
            self.ensure_loaded(deadline)
            report = self._report
        else:
            report = self._adhoc_report(workload, engine, deadline)
        if deadline is not None:
            deadline.check(CHECKPOINT_PROFILE)
        with self._sim_lock:
            choice = report.choose(slo)
        return {
            "workload": workload,
            "engine": engine,
            "slo": slo,
            "watched": watched,
            "choice": choice_payload(choice),
            "confidence": float(report.confidence),
            "pattern_mode": report.pattern.mode,
            "fastmem_only_ops_s": float(
                report.baselines.fast.throughput_ops_s
            ),
            "slowmem_only_ops_s": float(
                report.baselines.slow.throughput_ops_s
            ),
        }

    def _adhoc_report(self, workload: str, engine: str, deadline=None):
        """Profile (and memoize) a non-watched workload/engine pair."""
        key = (workload, engine)
        report = self._adhoc.get(key)
        if report is not None:
            telemetry.count("serve.size_memo_hits", workload=workload)
            return report
        if deadline is not None:
            deadline.check(CHECKPOINT_TRACE)
        from repro.core.descriptor import WorkloadDescriptor

        trace = self._build_trace(workload)
        descriptor = WorkloadDescriptor.from_trace(trace)
        if deadline is not None:
            deadline.check(CHECKPOINT_PROFILE)
        mnemo = self._build_mnemo(engine)
        with telemetry.span("serve.size_profile", workload=workload,
                            engine=engine):
            report = mnemo.profile(descriptor)
        self._adhoc[key] = report
        return report

    def validate(self, n_fast_keys: int | None = None,
                 budget_pct: float | None = None, deadline=None) -> dict:
        """Replay a sizing through the validator (the ``validate`` op).

        ``n_fast_keys`` defaults to the watched SLO choice; a custom
        ``budget_pct`` tightens/loosens both error-budget axes.
        """
        from repro.core.slo import choice_at
        from repro.guard.validator import ErrorBudget

        require(n_fast_keys is None or is_whole(n_fast_keys),
                "n_fast_keys", "an integer", n_fast_keys)
        require(budget_pct is None or (is_real(budget_pct) and budget_pct > 0),
                "budget_pct", "a positive number", budget_pct)
        self.ensure_loaded(deadline)
        with self._sim_lock:
            if n_fast_keys is None:
                choice = self._report.choose(self.config.slo)
            else:
                choice = choice_at(
                    self._report.curve, n_fast_keys,
                    max_slowdown=self.config.slo,
                )
            if budget_pct is None:
                validator = self._loop.validator
            else:
                budget = ErrorBudget(
                    throughput_pct=float(budget_pct),
                    latency_pct=float(budget_pct),
                )
                validator = self._mnemo.guard_loop(budget=budget).validator
            if deadline is not None:
                deadline.check(CHECKPOINT_VALIDATE)
            verdict = validator.validate(
                self._report.curve, choice, self._planning,
            )
        return {
            "workload": self.config.workload,
            "engine": self.config.engine,
            "n_fast_keys": int(choice.n_fast_keys),
            "passed": bool(verdict.passed),
            "verdict": verdict.to_payload(),
        }

    def drift(self, keys, sizes=None, deadline=None) -> dict:
        """Score a live key-stream sample for drift (the ``drift`` op)."""
        import numpy as np

        from repro.guard.drift import DriftDetector

        self.ensure_loaded(deadline)
        try:
            key_arr = np.asarray(keys)
        except (TypeError, ValueError) as exc:  # a ragged list
            raise ConfigurationError(
                f"drift keys must be integer key ids: {exc}"
            ) from exc
        if key_arr.ndim != 1 or key_arr.size == 0:
            raise ConfigurationError(
                "drift needs a non-empty flat list of key ids"
            )
        # never cast: 1.5 would become key 1, "7" key 7, true key 1
        require(key_arr.dtype.kind in "iu", "keys", "integer key ids",
                keys)
        key_arr = key_arr.astype(np.int64, copy=False)
        n_keys = self._planning.n_keys
        if key_arr.min() < 0 or key_arr.max() >= n_keys:
            raise ConfigurationError(
                f"drift keys must be in [0, {n_keys}); the sample must "
                "come from the watched workload's key space"
            )
        size_arr = None
        if sizes is not None:
            try:
                size_arr = np.asarray(sizes)
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"drift sizes must be numeric: {exc}"
                ) from exc
            if size_arr.shape != key_arr.shape:
                raise ConfigurationError(
                    "sizes must align one-to-one with keys"
                )
            require(size_arr.dtype.kind in "iuf"
                    and np.isfinite(size_arr).all() and (size_arr > 0).all(),
                    "sizes", "positive object sizes in bytes", sizes)
            size_arr = size_arr.astype(np.float64, copy=False)
        if deadline is not None:
            deadline.check(CHECKPOINT_VALIDATE)
        detector = DriftDetector(self._planning)
        report = detector.observe(key_arr, size_arr).report()
        advice = report.advice
        return {
            "workload": self.config.workload,
            "n_live_requests": int(report.n_live_requests),
            "level": report.level,
            "action": advice.action,
            "reason": advice.reason,
            "signals": [
                {
                    "metric": s.metric,
                    "value": float(s.value),
                    "warn": float(s.warn),
                    "act": float(s.act),
                    "level": s.level,
                }
                for s in report.signals
            ],
        }
