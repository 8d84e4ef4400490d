"""X-Mem-style instrumentation-based profiling (comparator).

Existing tiering solutions (X-Mem, the ISMM'16 characterization,
Unimem) determine per-object access frequencies by instrumenting every
memory access with tools like Intel Pin — "can add up to 40x overhead,
as per the authors of X-Mem" (Section V-B) — and obtain device
latencies from prior microbenchmark execution instead of running the
real workload on both configurations.

This module reproduces that methodology against the simulator so its
profiling cost and estimate quality can be compared with MnemoT
(Table IV and the baseline ablation bench):

- *input preparation* requires instrumenting the server with a custom
  allocation API (modelled as a per-run engineering step flag);
- *performance baselines* come from latency/bandwidth microbenchmarks,
  so the engine's per-request CPU cost is invisible to the model;
- *tiering weights* require one instrumented execution of the workload
  at ``instrumentation_overhead`` times its normal runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.kvstore.server import EngineFactory, HybridDeployment
from repro.memsim.system import HybridMemorySystem
from repro.ycsb.client import YCSBClient
from repro.ycsb.workload import Trace
from repro.core.pattern import KeyAccessPattern, PatternEngine


@dataclass(frozen=True)
class ProfilingCost:
    """Simulated time a profiling methodology spends, by step (ns)."""

    input_prep_ns: float
    baselines_ns: float
    tiering_ns: float
    requires_source_instrumentation: bool = False

    @property
    def total_ns(self) -> float:
        """End-to-end profiling time."""
        return self.input_prep_ns + self.baselines_ns + self.tiering_ns


@dataclass(frozen=True)
class MicrobenchBaselines:
    """Device timings from microbenchmarks (no engine CPU component)."""

    fast_latency_ns: float
    fast_bytes_per_ns: float
    slow_latency_ns: float
    slow_bytes_per_ns: float
    microbench_ns: float  # time spent measuring

    def device_time_ns(self, node: str, nbytes: float) -> float:
        """Predicted access time on a node for *nbytes* (device only)."""
        if node == "fast":
            return self.fast_latency_ns + nbytes / self.fast_bytes_per_ns
        if node == "slow":
            return self.slow_latency_ns + nbytes / self.slow_bytes_per_ns
        raise ConfigurationError(f"unknown node {node!r}")


@dataclass(frozen=True)
class InstrumentedResult:
    """Output of an instrumentation-based profiling run."""

    pattern: KeyAccessPattern
    microbench: MicrobenchBaselines
    cost: ProfilingCost


class InstrumentedProfiler:
    """The X-Mem-like comparator profiler.

    Parameters
    ----------
    engine_factory / system_factory / client:
        Same substrate as Mnemo, so costs are comparable.
    instrumentation_overhead:
        Execution slowdown under binary instrumentation (paper: up to
        40x; default 40).
    microbench_accesses:
        Number of pointer-chase/stream accesses per node in the
        latency/bandwidth microbenchmark.
    source_instrumentation_ns:
        Engineering time to adapt the application to the custom
        allocation API, expressed in simulated ns so it lands in the
        same cost ledger (default: 30 minutes).
    """

    def __init__(
        self,
        engine_factory: EngineFactory,
        system_factory=HybridMemorySystem.testbed,
        client: YCSBClient | None = None,
        instrumentation_overhead: float = 40.0,
        microbench_accesses: int = 1_000_000,
        source_instrumentation_ns: float = 30 * 60 * 1e9,
    ):
        if instrumentation_overhead < 1:
            raise ConfigurationError("instrumentation overhead must be >= 1")
        self.engine_factory = engine_factory
        self.system_factory = system_factory
        self.client = client if client is not None else YCSBClient()
        self.instrumentation_overhead = instrumentation_overhead
        self.microbench_accesses = microbench_accesses
        self.source_instrumentation_ns = source_instrumentation_ns

    # -- steps ------------------------------------------------------------------

    def run_microbenchmarks(self) -> MicrobenchBaselines:
        """Measure device latency/bandwidth with a synthetic kernel.

        The microbenchmark issues cache-line accesses, so it recovers
        the node parameters exactly — but nothing about how a real
        engine's request path uses them.
        """
        system = self.system_factory()
        line = 64
        per_access_fast = system.fast.access_time_ns(line)
        per_access_slow = system.slow.access_time_ns(line)
        micro_ns = self.microbench_accesses * (per_access_fast + per_access_slow)
        return MicrobenchBaselines(
            fast_latency_ns=system.fast.latency_ns,
            fast_bytes_per_ns=system.fast.bytes_per_ns,
            slow_latency_ns=system.slow.latency_ns,
            slow_bytes_per_ns=system.slow.bytes_per_ns,
            microbench_ns=micro_ns,
        )

    def instrumented_execution_ns(self, trace: Trace) -> float:
        """Simulated time of one fully instrumented workload execution."""
        deployment = HybridDeployment.all_fast(
            self.engine_factory, self.system_factory(), trace.record_sizes
        )
        result = self.client.execute(trace, deployment)
        return result.runtime_ns * self.instrumentation_overhead

    # -- profiling ------------------------------------------------------------------

    def profile(self, trace: Trace) -> InstrumentedResult:
        """Run the full instrumentation-based pipeline."""
        micro = self.run_microbenchmarks()
        tiering_ns = self.instrumented_execution_ns(trace)

        # the instrumented run observes every access, so the resulting
        # ordering matches the accesses/size weights MnemoT computes
        # directly from the trace
        pattern = PatternEngine("weight").analyze(trace)
        cost = ProfilingCost(
            input_prep_ns=self.source_instrumentation_ns,
            baselines_ns=micro.microbench_ns,
            tiering_ns=tiering_ns,
            requires_source_instrumentation=True,
        )
        return InstrumentedResult(pattern=pattern, microbench=micro, cost=cost)

    def predict_runtime_ns(
        self, trace: Trace, micro: MicrobenchBaselines, node: str,
    ) -> float:
        """Device-model runtime prediction for an all-*node* placement.

        Sums per-request device times only — the engine's CPU cost is
        invisible to microbenchmark-based baselines, which is exactly
        why this methodology mispredicts end-to-end throughput (see the
        baseline ablation bench).
        """
        sizes = trace.record_sizes[trace.keys].astype(np.float64)
        if node == "fast":
            lat, bpns = micro.fast_latency_ns, micro.fast_bytes_per_ns
        elif node == "slow":
            lat, bpns = micro.slow_latency_ns, micro.slow_bytes_per_ns
        else:
            raise ConfigurationError(f"unknown node {node!r}")
        return float(np.sum(lat + sizes / bpns))
