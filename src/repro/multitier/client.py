"""Measuring client for arbitrary key→tier assignments.

The two-tier :class:`~repro.ycsb.client.YCSBClient` routes through a
:class:`~repro.kvstore.server.HybridDeployment`; here placements are an
assignment array instead (one server instance per tier would be the
deployment analog), which keeps N-tier sweeps cheap.  A run gathers its
service times from the per-tier tables of
:func:`~repro.memsim.timing.service_tables` and realises noise through
the batch kernel's :func:`~repro.memsim.kernel.measure_repeats`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, WorkloadError
from repro.kvstore.profiles import EngineProfile
from repro.memsim.kernel import measure_repeats
from repro.memsim.timing import NoiseModel, service_tables
from repro.rng import SeedLike
from repro.ycsb.client import RunResult
from repro.ycsb.workload import Trace
from repro.multitier.system import TieredMemorySystem


class MultiTierClient:
    """Closed-loop client over an N-tier placement.

    Parameters mirror :class:`~repro.ycsb.client.YCSBClient`; it records
    no latency percentiles and runs one request at a time.
    """

    percentiles: tuple[float, ...] = ()
    concurrency = 1

    def __init__(
        self,
        system: TieredMemorySystem,
        profile: EngineProfile,
        repeats: int = 3,
        noise_sigma: float = 0.01,
        seed: SeedLike = None,
    ):
        if repeats <= 0:
            raise ConfigurationError(f"repeats must be positive, got {repeats}")
        self.system = system
        self.profile = profile
        self.repeats = repeats
        self.noise = NoiseModel(sigma=noise_sigma)
        self._seed = seed
        self._executions = 0

    @property
    def seed(self) -> SeedLike:
        """The base seed for the noise streams (as passed to ``__init__``)."""
        return self._seed

    def execute(self, trace: Trace, assignment: np.ndarray) -> RunResult:
        """Run *trace* with keys placed per *assignment* (key -> tier)."""
        assignment = np.asarray(assignment)
        if assignment.shape != (trace.n_keys,):
            raise WorkloadError(
                f"assignment must map every key ({trace.n_keys}), "
                f"got shape {assignment.shape}"
            )
        n_tiers = len(self.system)
        if assignment.min() < 0 or assignment.max() >= n_tiers:
            raise WorkloadError(f"tier indices must be in [0, {n_tiers})")

        tables = service_tables(
            self.profile, trace.record_sizes, self.system.latency_array(),
            self.system.bandwidth_array(), 1.0,
        )
        base = tables[assignment[trace.keys], trace.is_read.astype(np.intp),
                      trace.keys]
        self._executions += 1
        return measure_repeats(
            self, trace, self.profile.name, base,
            f"{trace.name}/mt-exec{self._executions}",
        )
