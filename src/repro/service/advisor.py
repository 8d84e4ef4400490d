"""The served advisor: Mnemo sizing/validation/drift behind the socket ops.

:class:`ServedAdvisor` owns everything one ``mnemo serve`` daemon knows
about advice: the planning trace, the profiled
:class:`~repro.core.report.MnemoReport` it watches, the guard loop that
re-checks it every tick, and the reports of every other ``size``
request it has answered.  The service (:mod:`repro.service.serve`)
stays a pure request router; this module is where sizing actually
happens.

Two invariants shape the code:

- **Bit-identity with the CLI, by construction.**  A ``size`` request
  is the watched :class:`~repro.core.advice.AdviceRequest` with the
  fields the caller named replaced, answered by ``mnemo profile``'s
  :func:`~repro.core.advice.advise` through the same store entries;
  reports are memoized by the request minus its SLO.
- **One simulator, many threads.**  The watched ``Mnemo``'s measuring
  client memoizes per-trace state and is not thread-safe, so every use
  of it (ticks, validation replays, watched-profile reads) serialises
  on one lock.  Other requests build their own engine/client stack and
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
from dataclasses import asdict, replace

from repro import telemetry
from repro.core.advice import CHECKPOINT_PROFILE, advise
from repro.errors import ConfigurationError
from repro.service.requests import is_real, is_whole, require

#: Deadline checkpoint label of the replays (``advise`` owns the rest).
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
        self._report = None
        self._loop = None
        #: report per AdviceRequest.profile_key (the request minus slo)
        self._reports: dict[tuple, object] = {}

    # -- loading -------------------------------------------------------------

    @property
    def loaded(self) -> bool:
        """True once the watched profile has been measured."""
        return self._report is not None

    def _advise(self, request, deadline=None):
        """Answer *request* through the shared cache and memoize its report."""
        with telemetry.span("serve.advise", workload=request.workload,
                            engine=request.engine):
            advice = advise(request, cache=self.cache, deadline=deadline)
        self._reports[request.profile_key] = advice.report
        return advice

    def ensure_loaded(self, deadline=None) -> "ServedAdvisor":
        """Measure the watched profile once (idempotent, thread-safe).

        Built lazily so constructing an advisor is cheap; the first
        tick or advice request pays for the profile, every later one
        reads the memo (or, across restarts, the shared store cache).
        The watched advice keeps its trace and consultant: ticks,
        ``validate`` and ``drift`` replay through them.
        """
        from repro.guard.validator import ErrorBudget

        with self._load_lock:
            if self._report is None:
                advice = self._advise(self.config.request, deadline)
                self._planning = advice.trace
                self._mnemo = advice.consultant
                self._loop = advice.consultant.guard_loop(budget=ErrorBudget())
                self._report = advice.report
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

        The request is the watched one with the fields the caller named
        replaced (and validated); its report is profiled once through
        the shared cache and memoized for the daemon's lifetime, so a
        warm ``size`` is a memo lookup plus ``choose(slo)``.
        """
        asked = {
            k: v for k, v in
            (("workload", workload), ("engine", engine), ("slo", slo))
            if v is not None
        }
        watched = self.config.request
        request = replace(watched, **asked) if asked else watched
        key = request.profile_key
        is_watched = key == watched.profile_key
        report = self._reports.get(key)
        if report is not None:
            telemetry.count("serve.size_memo_hits", workload=request.workload)
        elif is_watched:
            report = self.ensure_loaded(deadline)._report
        else:
            report = self._advise(request, deadline).report
        if deadline is not None:
            deadline.check(CHECKPOINT_PROFILE)
        with self._sim_lock:
            choice = report.choose(request.slo)
        return {
            "workload": request.workload,
            "engine": request.engine,
            "slo": request.slo,
            "watched": is_watched,
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
