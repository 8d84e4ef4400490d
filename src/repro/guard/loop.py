"""The closed guard loop: drift -> margin -> validate -> re-plan.

:class:`GuardLoop` is the orchestration layer the ``mnemo guard`` CLI
and CI/cron jobs drive.  Given a profiling report, the planning trace,
and (optionally) a live trace, one :meth:`~GuardLoop.run` call executes
the whole robustness pipeline:

1. **drift** — the live trace is compared against the planning
   reference (:mod:`repro.guard.drift`); the signals fold into a
   :class:`~repro.guard.drift.ReplanAdvice`;
2. **margin** — the SLO slack is tightened by the confidence-aware
   headroom factor (:mod:`repro.guard.margin`): degraded baselines
   (PR 2's fault flags) and a ``widen_margin`` drift advice both shrink
   the effective slowdown budget before the sizing is selected;
3. **validate** — the (guarded) choice is replayed through the full
   simulator against the live trace
   (:class:`~repro.guard.validator.RecommendationValidator`); a
   rejection triggers the fallback search for the nearest split that
   validates.

The result is a :class:`GuardOutcome` whose :attr:`~GuardOutcome.exit_code`
follows CI conventions: 0 = recommendation stands, 1 = warnings
(marginal verdict, widened margin, drift warn), 3 = action needed
(rejection, fallback applied, or re-profiling advised).  Exit code 2 is
reserved for usage errors, matching the CLI's convention.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import telemetry
from repro.errors import GuardError
from repro.ycsb.workload import Trace
from repro.core.report import MnemoReport
from repro.core.slo import DEFAULT_MAX_SLOWDOWN, SizingChoice
from repro.guard.drift import (
    DriftThresholds,
    ReplanAdvice,
    WorkloadDriftReport,
    detect_drift,
)
from repro.guard.margin import DEFAULT_MARGIN_POLICY, MarginPolicy
from repro.guard.validator import (
    ErrorBudget,
    FallbackResult,
    RecommendationValidator,
    ValidationVerdict,
)


@dataclass(frozen=True)
class GuardOutcome:
    """Everything one guard-loop pass produced.

    Attributes
    ----------
    choice:
        The sizing that should be deployed — the guarded original when
        it validates, the fallback split when it does not.
    verdict:
        The original choice's validation verdict.
    fallback:
        The fallback search result (None when the original validated,
        or when validation was skipped).
    drift:
        The drift report (None when no live trace was supplied).
    advice:
        The replanning advice the drift signals imply (``keep`` when no
        live trace was supplied).
    headroom / effective_slowdown:
        The margin actually applied when selecting the choice.
    """

    choice: SizingChoice
    verdict: ValidationVerdict | None
    fallback: FallbackResult | None
    drift: WorkloadDriftReport | None
    advice: ReplanAdvice
    headroom: float
    effective_slowdown: float

    @property
    def ok(self) -> bool:
        """True when the deployed choice needs no operator attention."""
        return self.exit_code == 0

    @property
    def replanned(self) -> bool:
        """True when the original recommendation was replaced."""
        return self.fallback is not None

    @property
    def exit_code(self) -> int:
        """CI-friendly status: 0 = clean, 1 = warnings, 3 = action."""
        if (
            self.advice.action == "reprofile"
            or self.replanned
            or (self.verdict is not None and not self.verdict.ok)
        ):
            return 3
        if (
            self.advice.action == "widen_margin"
            or self.headroom > 1.0
            or (self.verdict is not None and not self.verdict.passed)
        ):
            return 1
        return 0

    def lines(self) -> list[str]:
        """Human-readable summary of the whole guard pass."""
        out = []
        if self.drift is not None:
            out.extend(self.drift.lines())
        else:
            out.append("drift: not checked (no live trace)")
        out.append(
            f"margin: headroom {self.headroom:.2f}x -> effective SLO "
            f"{self.effective_slowdown:.1%}"
        )
        if self.verdict is not None:
            out.append(f"validation: {self.verdict.describe()}")
        if self.fallback is not None:
            out.append(
                f"fallback: re-planned to {self.fallback.n_fast_keys:,} fast "
                f"keys (cost factor {self.fallback.choice.cost_factor:.2f}, "
                f"probed {len(self.fallback.probed)} splits)"
            )
        out.append(
            f"deploy: {self.choice.n_fast_keys:,} fast keys "
            f"({self.choice.capacity_ratio:.0%} of data, "
            f"cost factor {self.choice.cost_factor:.2f}) "
            f"[exit {self.exit_code}]"
        )
        return out


class GuardLoop:
    """Closed-loop guardrails around one Mnemo recommendation.

    Parameters
    ----------
    mnemo:
        The consultant whose engines and client the loop reuses — the
        validator must measure with the same client configuration the
        baselines were measured with, or model error and configuration
        mismatch would be indistinguishable.
        A consultant built with a store measures through a caching
        client, so every replayed split is memoized there too.
    budget / thresholds / policy:
        The error budget, drift thresholds and margin policy; all
        default to the documented defaults (see ``docs/GUARD.md``).
    """

    def __init__(
        self,
        mnemo,
        budget: ErrorBudget | None = None,
        thresholds: DriftThresholds | None = None,
        policy: MarginPolicy | None = None,
    ):
        self.mnemo = mnemo
        self.thresholds = thresholds if thresholds is not None else DriftThresholds()
        self.policy = policy if policy is not None else DEFAULT_MARGIN_POLICY
        self.validator = RecommendationValidator(
            engine_factory=mnemo.engine_factory,
            system_factory=mnemo.system_factory,
            client=mnemo.client,
            budget=budget,
        )

    def run(
        self,
        report: MnemoReport,
        planning_trace: Trace,
        live_trace: Trace | None = None,
        max_slowdown: float = DEFAULT_MAX_SLOWDOWN,
        validate: bool = True,
    ) -> GuardOutcome:
        """One full guard pass over a recommendation.

        Parameters
        ----------
        report:
            The profiling report the recommendation came from.
        planning_trace:
            The trace the report was profiled on (the drift reference
            and the default validation workload).
        live_trace:
            What production is serving now; enables drift detection and
            makes validation replay reality instead of the plan.
        max_slowdown:
            The operator's SLO; the margin policy tightens it before
            the sizing is selected.
        validate:
            Skip simulator replay when False (drift + margin only —
            cheap enough for every cron tick).
        """
        with telemetry.span("guard.run", workload=report.workload):
            drift_report = None
            advice = ReplanAdvice(
                action="keep", reason="no live trace supplied", signals=(),
            )
            if live_trace is not None:
                drift_report = detect_drift(
                    planning_trace, live_trace, thresholds=self.thresholds
                )
                advice = drift_report.advice
                for sig in drift_report.signals:
                    telemetry.gauge(
                        "guard.drift", sig.value, metric=sig.metric,
                    )

            widen = advice.action == "widen_margin"
            confidence = report.confidence
            headroom = self.policy.headroom(confidence, widen=widen)
            effective = self.policy.effective_slowdown(
                max_slowdown, confidence, widen=widen
            )
            telemetry.gauge("guard.headroom", headroom)
            telemetry.gauge("guard.effective_slowdown", effective)
            choice = report.choose(effective)

            verdict = None
            fallback = None
            if validate:
                target = live_trace if live_trace is not None else planning_trace
                try:
                    verdict, fallback = self.validator.validate_or_fallback(
                        report.curve, choice, target
                    )
                except GuardError:
                    if advice.action == "reprofile":
                        # the drift detectors already explained the failure:
                        # no split of this curve serves the moved workload
                        verdict = self.validator.validate(
                            report.curve, choice, target
                        )
                    else:
                        raise
                if fallback is not None:
                    choice = fallback.choice
            if verdict is not None:
                telemetry.count("guard.verdict", status=verdict.status)

            outcome = GuardOutcome(
                choice=choice,
                verdict=verdict,
                fallback=fallback,
                drift=drift_report,
                advice=advice,
                headroom=headroom,
                effective_slowdown=effective,
            )
            telemetry.event(
                "guard.outcome",
                exit_code=outcome.exit_code,
                action=advice.action,
                replanned=outcome.replanned,
            )
        return outcome
