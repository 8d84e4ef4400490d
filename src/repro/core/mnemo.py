"""The Mnemo facade — wires the four engines together (Figure 6).

Typical use::

    from repro import Mnemo, RedisLike
    from repro.ycsb import generate_trace, workload_by_name

    trace = generate_trace(workload_by_name("trending"))
    mnemo = Mnemo(engine_factory=RedisLike)
    report = mnemo.profile(trace)
    choice = report.choose(max_slowdown=0.10)
    deployment = mnemo.place(report, choice)
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro import telemetry
from repro.cost.model import DEFAULT_PRICE_FACTOR
from repro.errors import ConfigurationError
from repro.kvstore.redislike import RedisLike
from repro.kvstore.server import EngineFactory, HybridDeployment
from repro.memsim.system import HybridMemorySystem
from repro.ycsb.client import YCSBClient
from repro.ycsb.workload import Trace
from repro.core.descriptor import WorkloadDescriptor
from repro.core.estimate import EstimateEngine
from repro.core.pattern import PatternEngine
from repro.core.placement import PlacementEngine
from repro.core.report import MnemoReport
from repro.core.sensitivity import SensitivityEngine
from repro.core.slo import SizingChoice


class Mnemo:
    """The capacity-sizing consultant (stand-alone configuration, Fig 2a).

    Parameters
    ----------
    engine_factory:
        The key-value store under test (default: :class:`RedisLike`).
    system_factory:
        Builds fresh hybrid memory systems (default: Table I testbed).
    client:
        The measuring YCSB client.
    p:
        SlowMem per-byte price as a fraction of FastMem's (paper: 0.2).
    cache:
        Optional result store (its path or a
        :class:`~repro.store.SQLiteStore`).  Profiling the same
        workload twice — across runs, processes or tools — then recalls
        the baselines bit-identically instead of re-measuring them.
    pattern_mode:
        Tiering-order mode for the Pattern Engine; the stand-alone tool
        uses ``"touch"`` (keys as the workload touches them).
    accuracy:
        ``"simulate"`` (default) measures the baselines through the
        full simulator; ``"analytic"`` predicts them in closed form via
        the Che-approximation fast path
        (:mod:`repro.memsim.analytic`) — orders of magnitude cheaper,
        within a few percent on the YCSB presets (see
        ``docs/KERNEL.md`` for the error envelope).  Overridable per
        :meth:`profile` call.
    """

    pattern_mode = "touch"

    def __init__(
        self,
        engine_factory: EngineFactory = RedisLike,
        system_factory: Callable[[], HybridMemorySystem] = HybridMemorySystem.testbed,
        client: YCSBClient | None = None,
        p: float = DEFAULT_PRICE_FACTOR,
        cache=None,
        accuracy: str = "simulate",
    ):
        self.accuracy = self._check_accuracy(accuracy)
        self.engine_factory = engine_factory
        self.system_factory = system_factory
        client = client if client is not None else YCSBClient()
        if cache is not None:
            from repro.runner.caching import CachingClient
            client = CachingClient.wrap(client, cache)
        self.client = client
        self.sensitivity = SensitivityEngine(
            engine_factory, system_factory, self.client
        )
        self.pattern_engine = PatternEngine(mode=self.pattern_mode)
        self.estimate_engine = EstimateEngine(p=p)
        self.placement_engine = PlacementEngine(engine_factory)

    # -- profiling -------------------------------------------------------------------

    @staticmethod
    def _check_accuracy(accuracy: str) -> str:
        if accuracy not in ("simulate", "analytic"):
            raise ConfigurationError(
                f"accuracy must be 'simulate' or 'analytic', got {accuracy!r}"
            )
        return accuracy

    def _analytic_baselines(self, descriptor: WorkloadDescriptor):
        """Closed-form baselines via the Che-approximation fast path."""
        from repro.memsim.analytic import predict_baselines

        system = self.system_factory()
        profile = self.engine_factory(system.fast, system.slow).profile
        return predict_baselines(
            descriptor.to_trace(), profile, system, self.client
        )

    def profile(
        self,
        workload: Trace | WorkloadDescriptor,
        external_order: np.ndarray | None = None,
        allow_partial: bool = False,
        accuracy: str | None = None,
    ) -> MnemoReport:
        """Run the full Mnemo pipeline on a workload.

        Parameters
        ----------
        workload:
            A generated trace or a user-supplied descriptor.
        external_order:
            A key ordering from an existing tiering solution (the
            Fig 2b configuration); only valid when ``pattern_mode`` is
            ``"external"``.
        allow_partial:
            Degrade gracefully when a baseline measurement fails: the
            missing extreme is synthesised analytically and the report's
            :attr:`~repro.core.report.MnemoReport.confidence` drops
            below 1.0 instead of the pipeline crashing.
        accuracy:
            Override this consultant's baseline mode for one call:
            ``"simulate"`` measures, ``"analytic"`` predicts in closed
            form (``allow_partial`` is then irrelevant — there is no
            measurement to fail).
        """
        mode = self._check_accuracy(
            accuracy if accuracy is not None else self.accuracy
        )
        descriptor = (
            workload
            if isinstance(workload, WorkloadDescriptor)
            else WorkloadDescriptor.from_trace(workload)
        )
        with telemetry.span(
            "mnemo.profile", workload=descriptor.name, accuracy=mode,
        ):
            if mode == "analytic":
                baselines = self._analytic_baselines(descriptor)
            else:
                baselines = self.sensitivity.measure(
                    descriptor, allow_partial=allow_partial
                )
            if baselines.flags:
                telemetry.event(
                    "mnemo.degraded_baselines",
                    workload=descriptor.name,
                    flags=[str(f) for f in baselines.flags],
                )
            pattern = self.pattern_engine.analyze(descriptor, external_order)
            curve = self.estimate_engine.estimate(baselines, pattern)
        return MnemoReport(
            workload=descriptor.name,
            engine=curve.engine,
            baselines=baselines,
            pattern=pattern,
            curve=curve,
        )

    # -- guarding ---------------------------------------------------------------------

    def guard_loop(
        self,
        budget=None,
        thresholds=None,
        policy=None,
        cache=None,
    ):
        """A :class:`~repro.guard.loop.GuardLoop` around this consultant.

        The loop reuses this instance's engines and measuring client, so
        validation replays happen under exactly the configuration the
        baselines were measured with.  See ``docs/GUARD.md`` for the
        error-budget, drift-threshold and margin parameters.
        """
        from repro.guard.loop import GuardLoop  # lazy: avoid an import cycle

        return GuardLoop(
            self,
            budget=budget,
            thresholds=thresholds,
            policy=policy,
            cache=cache,
        )

    # -- placement --------------------------------------------------------------------

    def place(
        self,
        report: MnemoReport,
        choice: SizingChoice,
        system: HybridMemorySystem | None = None,
    ) -> HybridDeployment:
        """Statically deploy the sizing selected from *report*."""
        return self.placement_engine.realize(
            report.curve,
            choice,
            report.pattern.sizes,
            system if system is not None else self.system_factory(),
        )


class ExternalTieringMnemo(Mnemo):
    """Mnemo fed by an existing generic tiering solution (Fig 2b).

    ``profile`` requires ``external_order`` — the DRAM-priority key
    ordering the external tool produced; Mnemo then sweeps incremental
    sizings along that ordering.
    """

    pattern_mode = "external"
