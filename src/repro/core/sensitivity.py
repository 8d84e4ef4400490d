"""The Sensitivity Engine.

"A customized YCSB client, which executes the actual workload itself
... determines the performance baselines for the best case, where all
data is in FastMem, and worst case, where all data is in SlowMem,
including average total runtime and average read and write request
response times" (Section IV).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import FaultError, ReproError
from repro.kvstore.profiles import EngineProfile
from repro.kvstore.server import EngineFactory
from repro.memsim.system import HybridMemorySystem
from repro.ycsb.client import RunResult, YCSBClient
from repro.ycsb.workload import Trace

SystemFactory = Callable[[], HybridMemorySystem]

#: Confidence multiplier applied per analytically synthesised baseline.
ESTIMATED_PENALTY = 0.5
#: Confidence multiplier applied per baseline measured under fault injection.
FAULTY_PENALTY = 0.75


def estimate_counterpart(
    measured: RunResult,
    profile: EngineProfile,
    system: HybridMemorySystem,
    target: str,
) -> RunResult:
    """Synthesize the missing extreme baseline from the measured one.

    Inverts the timing model ``t = cpu + passes * (lat + bytes/bw)`` on
    the node the measurement ran on, recovering the average bytes each
    request touches, then re-evaluates it with the *target* node's
    latency and bandwidth.  LLC hits and measurement noise are not
    modelled — which is exactly why estimated baselines carry a reduced
    :attr:`PerformanceBaselines.confidence`.

    Parameters
    ----------
    measured:
        The surviving extreme measurement.
    profile:
        The engine cost profile both measurements share.
    system:
        The hybrid system the measurement ran against.
    target:
        ``"fast"`` to synthesize the FastMem-only baseline from a
        SlowMem-only measurement, ``"slow"`` for the converse.
    """
    if target not in ("fast", "slow"):
        raise FaultError(f"unknown counterpart target {target!r}")
    src = system.slow if target == "fast" else system.fast
    dst = system.fast if target == "fast" else system.slow

    def _retime(avg_ns: float, is_read: bool, n: int) -> float:
        if n == 0:
            return 0.0
        cpu = profile.cpu_ns(is_read)
        passes = profile.passes(is_read)
        if passes <= 0:
            return avg_ns  # memory-insensitive op: identical on both nodes
        touched = ((avg_ns - cpu) / passes - src.latency_ns) * src.bytes_per_ns
        touched = max(0.0, touched)
        return cpu + passes * (dst.latency_ns + touched / dst.bytes_per_ns)

    est_read = _retime(measured.avg_read_ns, True, measured.n_reads)
    est_write = _retime(measured.avg_write_ns, False, measured.n_writes)
    runtime = (
        measured.n_reads * est_read + measured.n_writes * est_write
    ) / measured.concurrency
    ratio = runtime / measured.runtime_ns if measured.runtime_ns > 0 else 1.0
    percentiles = {
        q: v * ratio for q, v in measured.latency_percentiles_ns.items()
    }
    return RunResult(
        workload=measured.workload,
        engine=measured.engine,
        n_requests=measured.n_requests,
        n_reads=measured.n_reads,
        n_writes=measured.n_writes,
        runtime_ns=runtime,
        avg_read_ns=est_read,
        avg_write_ns=est_write,
        latency_percentiles_ns=percentiles,
        repeats=measured.repeats,
        runtime_std_ns=0.0,
        concurrency=measured.concurrency,
    )


@dataclass(frozen=True)
class PerformanceBaselines:
    """The two extreme-configuration measurements the model is built on.

    ``flags`` records how each side was obtained when anything other
    than a clean measurement produced it: ``"<side>:estimated"`` for an
    analytically synthesised baseline (the measurement failed and
    ``allow_partial`` was set) and ``"<side>:faulty"`` for one measured
    under active fault injection.  :attr:`confidence` folds the flags
    into a single 0..1 figure that reports and advisors surface.
    """

    fast: RunResult  # best case: all data in FastMem
    slow: RunResult  # worst case: all data in SlowMem
    flags: tuple[str, ...] = field(default=())

    @property
    def confidence(self) -> float:
        """Trustworthiness of the baselines, 1.0 = cleanly measured.

        Each synthesised side halves it; each fault-injected side takes
        a quarter off.  Purely multiplicative, so the worst case (one
        side estimated because the other, fault-ridden side was the
        only survivor) compounds.
        """
        c = 1.0
        for flag in self.flags:
            if flag.endswith(":estimated"):
                c *= ESTIMATED_PENALTY
            elif flag.endswith(":faulty"):
                c *= FAULTY_PENALTY
        return c

    @property
    def degraded(self) -> bool:
        """True when anything other than clean measurement produced these."""
        return bool(self.flags)

    @property
    def read_delta_ns(self) -> float:
        """Per-read runtime saving from moving its key to FastMem.

        Expressed as a *runtime contribution* — response-time deltas
        divided by the measurement concurrency — so the telescoped
        estimate stays exact for multi-threaded clients too.
        """
        return (self.slow.read_runtime_contrib_ns
                - self.fast.read_runtime_contrib_ns)

    @property
    def write_delta_ns(self) -> float:
        """Per-write runtime saving from moving its key to FastMem."""
        return (self.slow.write_runtime_contrib_ns
                - self.fast.write_runtime_contrib_ns)

    @property
    def fast_runtime_ns(self) -> float:
        """Best-case total runtime."""
        return self.fast.runtime_ns

    @property
    def slow_runtime_ns(self) -> float:
        """Worst-case total runtime."""
        return self.slow.runtime_ns

    @property
    def throughput_gap(self) -> float:
        """FastMem-only over SlowMem-only throughput (>= 1 normally)."""
        return self.fast.throughput_ops_s / self.slow.throughput_ops_s


class SensitivityEngine:
    """Obtains the real performance baselines by workload execution.

    Parameters
    ----------
    engine_factory:
        The key-value store under test.
    system_factory:
        Builds a fresh hybrid memory system per deployment (default:
        the Table I testbed).
    client:
        The measuring client; defaults to 3 repeats at 1 % noise, as
        the paper reports means over multiple runs.  A client with a
        result store (``YCSBClient(cache=...)``) recalls baselines
        already measured — by any process — bit-identically instead of
        re-executing them.
    """

    def __init__(
        self,
        engine_factory: EngineFactory,
        system_factory: SystemFactory = HybridMemorySystem.testbed,
        client: YCSBClient | None = None,
    ):
        self.engine_factory = engine_factory
        self.system_factory = system_factory
        self.client = client if client is not None else YCSBClient()

    def measure(
        self, trace: Trace, allow_partial: bool = False,
    ) -> PerformanceBaselines:
        """Execute the workload in both extreme configurations.

        The all-FastMem and all-SlowMem masks go through
        :meth:`~repro.ycsb.client.YCSBClient.execute_placements` — no
        record is loaded into any engine.  Sides measured under active
        fault injection are flagged ``"<side>:faulty"``.

        With ``allow_partial=True`` the engine degrades gracefully: if
        one extreme measurement fails (a :class:`~repro.errors.ReproError`
        — e.g. an injected fault or a corrupt cached trace), the missing
        baseline is synthesised from the surviving one via
        :func:`estimate_counterpart` and flagged ``"<side>:estimated"``.
        Both failing still raises.  Without ``allow_partial`` any
        failure propagates unchanged.
        """
        system = self.system_factory()
        profile = self.engine_factory(system.fast, system.slow).profile
        masks = {
            "fast": np.ones(trace.n_keys, dtype=bool),
            "slow": np.zeros(trace.n_keys, dtype=bool),
        }
        # one batch shares one kernel between the sides; a failure is only
        # survivable if it can be pinned to a side, so partial mode
        # measures them apart
        batches = (
            [("fast",), ("slow",)] if allow_partial else [("fast", "slow")]
        )
        measured: dict[str, RunResult] = {}
        errors: dict[str, ReproError] = {}
        for sides in batches:
            try:
                results = self.client.execute_placements(
                    trace, [masks[side] for side in sides], profile, system,
                    record_sizes=trace.record_sizes,
                )
            except ReproError as exc:
                if not allow_partial:
                    raise
                errors[sides[0]] = exc
            else:
                measured.update(zip(sides, results))
        if not measured:
            raise FaultError(
                "both extreme baselines failed: "
                f"fast: {errors['fast']}; slow: {errors['slow']}"
            ) from errors["slow"]

        faults = getattr(self.client, "faults", None)
        flags = (
            [f"{side}:faulty" for side in measured]
            if faults is not None and getattr(faults, "active", False)
            else []
        )
        for side, other in (("fast", "slow"), ("slow", "fast")):
            if side not in measured:
                measured[side] = estimate_counterpart(
                    measured[other], profile, system, target=side
                )
                flags.append(f"{side}:estimated")
        return PerformanceBaselines(
            fast=measured["fast"], slow=measured["slow"],
            flags=tuple(sorted(flags)),
        )
