"""Recommendation validation: predicted vs. simulated ground truth.

Mnemo's output is an *analytical prediction* — the estimate curve
telescopes two baseline measurements across every possible split.  The
paper validates the model offline (Fig 5 / Fig 8); production use needs
the same check *per recommendation*, automatically, before a sizing is
acted on.

:class:`RecommendationValidator` replays the chosen FastMem:SlowMem
split — plus its ± one-increment neighbours — through the full simulator
(the batch kernel, the real measuring client) and compares the curve's
predicted throughput and latency against the simulated ground truth,
point by point, against a configurable :class:`ErrorBudget`.  The result
is a :class:`ValidationVerdict`:

- ``pass`` — every replayed point is inside the budget;
- ``marginal`` — inside the budget but beyond its comfort fraction;
- ``reject`` — at least one point violates the budget; the verdict
  names the violating metric.

A rejected recommendation triggers :meth:`~RecommendationValidator.find_fallback`
— an outward search along the curve for the nearest split that *does*
validate (always ending at the all-FastMem safe harbour).

Verdicts are deterministic — the simulator's noise is a pure function of
the experiment fingerprint — and a verdict is always judged afresh from
its replayed results.  With a client that has a store
(``YCSBClient(cache=...)``) every replayed split is memoized as a ``results`` row, so
re-validating the same recommendation recalls those results without
building a kernel and judges them into a bit-identical verdict.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError, GuardError
from repro.kvstore.server import EngineFactory
from repro.memsim.system import HybridMemorySystem
from repro.ycsb.client import YCSBClient
from repro.ycsb.workload import Trace
from repro.core.estimate import EstimateCurve
from repro.core.slo import SizingChoice, choice_at

#: Fraction of the key space one validation/fallback increment spans
#: (the ± neighbours sit one increment away).
DEFAULT_STEP_FRACTION = 0.05

#: Default bound on fallback probes before jumping to the safe harbour.
DEFAULT_MAX_PROBES = 8


@dataclass(frozen=True)
class ErrorBudget:
    """Permissible prediction error for a recommendation to be trusted.

    Parameters
    ----------
    throughput_pct / latency_pct:
        Maximum ``|simulated - predicted| / simulated`` error, percent.
        The paper reports <= 8 % model error on the Table III workloads
        (Fig 8a), so the 10 % defaults allow normal model error plus a
        little noise while catching genuinely stale plans.
    marginal_fraction:
        Errors inside the budget but above this fraction of it yield a
        ``marginal`` verdict — a warning, not a rejection.
    """

    throughput_pct: float = 10.0
    latency_pct: float = 10.0
    marginal_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.throughput_pct <= 0 or self.latency_pct <= 0:
            raise ConfigurationError(
                "error budgets must be positive, got "
                f"throughput={self.throughput_pct} latency={self.latency_pct}"
            )
        if not 0 < self.marginal_fraction <= 1:
            raise ConfigurationError(
                f"marginal_fraction must be in (0, 1], got "
                f"{self.marginal_fraction}"
            )


@dataclass(frozen=True)
class PointCheck:
    """Predicted vs. simulated metrics at one replayed split."""

    n_fast_keys: int
    predicted_throughput_ops_s: float
    simulated_throughput_ops_s: float
    throughput_error_pct: float
    predicted_latency_ns: float
    simulated_latency_ns: float
    latency_error_pct: float


@dataclass(frozen=True)
class ValidationVerdict:
    """The outcome of validating one recommendation.

    ``status`` is ``"pass"``, ``"marginal"`` or ``"reject"``;
    ``violating_metric`` names the budget a rejected verdict broke
    (``"throughput"`` or ``"latency"``, None otherwise).  The verdict
    carries every replayed :class:`PointCheck` so reports can show the
    full neighbourhood.
    """

    status: str
    workload: str
    engine: str
    n_fast_keys: int
    max_throughput_error_pct: float
    max_latency_error_pct: float
    violating_metric: str | None
    budget: ErrorBudget
    points: tuple[PointCheck, ...]

    @property
    def ok(self) -> bool:
        """True unless the verdict is a rejection."""
        return self.status != "reject"

    @property
    def passed(self) -> bool:
        """True only for a clean pass (no marginal warning)."""
        return self.status == "pass"

    def describe(self) -> str:
        """One-line human-readable rendering."""
        body = (
            f"{self.status.upper()} at {self.n_fast_keys} fast keys: "
            f"throughput err {self.max_throughput_error_pct:.1f}% "
            f"(budget {self.budget.throughput_pct:.0f}%), "
            f"latency err {self.max_latency_error_pct:.1f}% "
            f"(budget {self.budget.latency_pct:.0f}%)"
        )
        if self.violating_metric:
            body += f" — violated: {self.violating_metric}"
        return body

    def to_payload(self) -> dict:
        """A JSON-serialisable dict (the served ``validate`` reply)."""
        return asdict(self)


@dataclass(frozen=True)
class FallbackResult:
    """Outcome of the nearest-validating-split search after a rejection."""

    choice: SizingChoice
    verdict: ValidationVerdict
    probed: tuple[int, ...] = field(default=())

    @property
    def n_fast_keys(self) -> int:
        """The validating split the search settled on."""
        return self.verdict.n_fast_keys


class RecommendationValidator:
    """Replays recommended splits through the simulator and judges them.

    Parameters
    ----------
    engine_factory:
        The key-value store under test (must match the profiled one for
        the prediction to be comparable).
    system_factory:
        Builds fresh hybrid memory systems per replayed point.
    client:
        The measuring client; defaults to the profiling default (3
        repeats, 1 % noise).  A client with a store memoizes every
        replayed split, so re-validation recalls its results instead of
        measuring them.
    budget:
        The :class:`ErrorBudget` verdicts are judged against.
    """

    def __init__(
        self,
        engine_factory: EngineFactory,
        system_factory: Callable[[], HybridMemorySystem] = HybridMemorySystem.testbed,
        client: YCSBClient | None = None,
        budget: ErrorBudget | None = None,
    ):
        self.engine_factory = engine_factory
        self.system_factory = system_factory
        self.client = client if client is not None else YCSBClient()
        self.budget = budget if budget is not None else ErrorBudget()
        self._profile_memo = None

    # -- geometry -----------------------------------------------------------------

    def step(self, n_keys: int) -> int:
        """One validation increment, in keys (>= 1)."""
        return max(1, int(round(DEFAULT_STEP_FRACTION * n_keys)))

    def _neighbourhood(self, n: int, n_keys: int) -> list[int]:
        """The chosen split plus its ± one-increment neighbours."""
        step = self.step(n_keys)
        points = {
            int(np.clip(n, 0, n_keys)),
            int(np.clip(n - step, 0, n_keys)),
            int(np.clip(n + step, 0, n_keys)),
        }
        return sorted(points)

    def _profile(self):
        """The engine's cost profile (built once, lazily)."""
        if self._profile_memo is None:
            system = self.system_factory()
            self._profile_memo = self.engine_factory(
                system.fast, system.slow
            ).profile
        return self._profile_memo

    # -- validation ---------------------------------------------------------------

    def _replay_batch(
        self, curve: EstimateCurve, trace: Trace, checked: list[int],
    ) -> list[PointCheck]:
        """Simulate every checked split in one batch-kernel pass.

        The placement masks are the curve-order prefixes — exactly the
        splits the curve predicts — and all of them share one kernel
        gather; no deployment is constructed.  A client with a store
        recalls the splits it has already measured and builds no kernel when
        every one of them is warm.
        """
        system = self.system_factory()
        masks = np.zeros((len(checked), trace.n_keys), dtype=bool)
        for i, n in enumerate(checked):
            masks[i, curve.order[:n]] = True
        results = self.client.execute_placements(
            trace, masks, self._profile(), system,
            record_sizes=trace.record_sizes,
        )
        return [
            self._compare(curve, n, simulated)
            for n, simulated in zip(checked, results)
        ]

    def _compare(
        self, curve: EstimateCurve, n: int, simulated,
    ) -> PointCheck:
        """Fold one simulated split into a prediction-vs-truth check."""
        predicted = curve.point_for_keys(n)
        sim_thr = simulated.throughput_ops_s
        sim_lat = simulated.avg_latency_ns
        thr_err = abs(sim_thr - predicted["throughput_ops_s"]) / sim_thr * 100.0
        lat_err = abs(sim_lat - predicted["avg_latency_ns"]) / sim_lat * 100.0
        return PointCheck(
            n_fast_keys=int(n),
            predicted_throughput_ops_s=float(predicted["throughput_ops_s"]),
            simulated_throughput_ops_s=float(sim_thr),
            throughput_error_pct=float(thr_err),
            predicted_latency_ns=float(predicted["avg_latency_ns"]),
            simulated_latency_ns=float(sim_lat),
            latency_error_pct=float(lat_err),
        )

    def _judge(
        self,
        curve: EstimateCurve,
        n: int,
        points: list[PointCheck],
    ) -> ValidationVerdict:
        """Fold replayed points into a verdict against the budget."""
        b = self.budget
        max_thr = max(p.throughput_error_pct for p in points)
        max_lat = max(p.latency_error_pct for p in points)
        thr_ratio = max_thr / b.throughput_pct
        lat_ratio = max_lat / b.latency_pct
        worst = max(thr_ratio, lat_ratio)
        if worst > 1.0:
            status = "reject"
            violating = "throughput" if thr_ratio >= lat_ratio else "latency"
        elif worst > b.marginal_fraction:
            status, violating = "marginal", None
        else:
            status, violating = "pass", None
        return ValidationVerdict(
            status=status,
            workload=curve.workload,
            engine=curve.engine,
            n_fast_keys=int(n),
            max_throughput_error_pct=float(max_thr),
            max_latency_error_pct=float(max_lat),
            violating_metric=violating,
            budget=b,
            points=tuple(points),
        )

    def validate(
        self,
        curve: EstimateCurve,
        choice: SizingChoice | int,
        trace: Trace,
    ) -> ValidationVerdict:
        """Validate a recommendation against simulated ground truth.

        Parameters
        ----------
        curve:
            The estimate curve the recommendation came from.
        choice:
            The selected sizing (or a bare prefix length).
        trace:
            The trace to replay — the planning trace for a model check,
            or a *live* trace to test whether the plan survives what
            production is actually serving.
        """
        n = choice if isinstance(choice, int) else choice.n_fast_keys
        if not 0 <= n <= curve.n_keys:
            raise GuardError(
                f"split {n} outside the curve's [0, {curve.n_keys}] range"
            )
        if trace.n_keys != curve.n_keys:
            raise GuardError(
                f"trace key space ({trace.n_keys}) does not match the "
                f"curve ({curve.n_keys})"
            )
        checked = self._neighbourhood(n, curve.n_keys)
        return self._judge(
            curve, n, self._replay_batch(curve, trace, checked)
        )

    # -- fallback search ----------------------------------------------------------

    def find_fallback(
        self,
        curve: EstimateCurve,
        trace: Trace,
        start: SizingChoice | int,
        max_slowdown: float | None = None,
        max_probes: int = DEFAULT_MAX_PROBES,
    ) -> FallbackResult:
        """Search outward from a rejected split for one that validates.

        Candidates are probed nearest-first (+1, -1, +2, -2, ...
        increments from the rejected split — FastMem-richer first at
        every distance, since under-delivery is the common rejection
        cause), ending with the all-FastMem safe harbour.  The first
        candidate whose verdict is not a rejection wins.

        Raises :class:`~repro.errors.GuardError` when every candidate —
        including all-FastMem — fails, which means the workload itself
        changed beyond what any split of this curve can serve
        (re-profiling is the only fix).
        """
        if max_probes < 1:
            raise ConfigurationError(
                f"max_probes must be >= 1, got {max_probes}"
            )
        n0 = start if isinstance(start, int) else start.n_fast_keys
        slo = (
            max_slowdown
            if max_slowdown is not None
            else (start.max_slowdown if isinstance(start, SizingChoice) else 0.10)
        )
        step = self.step(curve.n_keys)
        candidates: list[int] = []
        for distance in range(1, max_probes + 1):
            for signed in (n0 + distance * step, n0 - distance * step):
                k = int(np.clip(signed, 0, curve.n_keys))
                if k != n0 and k not in candidates:
                    candidates.append(k)
        if curve.n_keys not in candidates:
            candidates.append(curve.n_keys)  # the safe harbour
        probed: list[int] = []
        for k in candidates:
            probed.append(k)
            verdict = self.validate(curve, k, trace)
            if verdict.ok:
                return FallbackResult(
                    choice=choice_at(curve, k, max_slowdown=slo),
                    verdict=verdict,
                    probed=tuple(probed),
                )
        raise GuardError(
            f"no split validates (probed {probed}): the live workload has "
            "moved beyond this curve — re-profile instead of re-sizing"
        )

    def validate_or_fallback(
        self,
        curve: EstimateCurve,
        choice: SizingChoice,
        trace: Trace,
        max_probes: int = DEFAULT_MAX_PROBES,
    ) -> tuple[ValidationVerdict, FallbackResult | None]:
        """Validate *choice*; on rejection, search for a validating split.

        Returns ``(verdict, None)`` when the original choice validates,
        or ``(verdict, fallback)`` when it was rejected and the nearest
        validating split was found.
        """
        verdict = self.validate(curve, choice, trace)
        if verdict.ok:
            return verdict, None
        fallback = self.find_fallback(
            curve, trace, choice, max_probes=max_probes
        )
        return verdict, fallback
