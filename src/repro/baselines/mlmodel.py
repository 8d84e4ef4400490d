"""Tahoe-style ML-inferred baseline (comparator).

Tahoe (SC'18) executes the workload once on SlowMem and *infers* the
FastMem baseline with a pre-trained machine-learning model, avoiding
the second run.  The paper argues the inference is cheap but "the time
to collect the training data, via workload execution and monitoring of
hardware level counters, is significant" (Section V-B).

We reproduce the methodology: a linear model over per-request features
(SlowMem service time, average request bytes, read fraction) is trained
on a set of training workloads — each of which requires *both* baseline
executions — and then predicts the FastMem runtime and average
read/write times for a new workload from its SlowMem run alone.  The
training cost is carried in the resulting :class:`ProfilingCost`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.kvstore.server import EngineFactory
from repro.memsim.system import HybridMemorySystem
from repro.ycsb.client import RunResult, YCSBClient
from repro.ycsb.generator import generate_trace
from repro.ycsb.workload import Trace, WorkloadSpec
from repro.baselines.instrumented import ProfilingCost
from repro.core.sensitivity import PerformanceBaselines, SensitivityEngine


def _features(slow: RunResult, trace: Trace) -> np.ndarray:
    """Feature vector: [1, slow metric..., avg bytes, read fraction]."""
    avg_bytes = float(trace.record_sizes[trace.keys].mean())
    return np.array([
        1.0,
        slow.avg_read_ns,
        slow.avg_write_ns,
        avg_bytes,
        trace.read_fraction,
    ])


@dataclass(frozen=True)
class FastBaselineModel:
    """Linear predictors of the FastMem baseline from SlowMem features."""

    read_coef: np.ndarray      # -> fast avg read ns
    write_coef: np.ndarray     # -> fast avg write ns
    training_cost_ns: float    # simulated time to collect training data
    n_training_workloads: int

    def predict(self, slow: RunResult, trace: Trace) -> RunResult:
        """Synthesize the FastMem-only RunResult Tahoe would infer."""
        x = _features(slow, trace)
        fast_read = max(0.0, float(x @ self.read_coef))
        fast_write = max(0.0, float(x @ self.write_coef))
        runtime = slow.n_reads * fast_read + slow.n_writes * fast_write
        if runtime <= 0:
            raise ConfigurationError("model predicted a non-positive runtime")
        return RunResult(
            workload=slow.workload,
            engine=slow.engine,
            n_requests=slow.n_requests,
            n_reads=slow.n_reads,
            n_writes=slow.n_writes,
            runtime_ns=runtime,
            avg_read_ns=fast_read,
            avg_write_ns=fast_write,
            latency_percentiles_ns={},
            repeats=0,
        )


def train_fast_baseline_model(
    training_specs: Sequence[WorkloadSpec],
    engine_factory: EngineFactory,
    system_factory=HybridMemorySystem.testbed,
    client: YCSBClient | None = None,
) -> FastBaselineModel:
    """Collect training data (both baselines per workload) and fit.

    Needs at least as many training workloads as features (5).
    """
    if len(training_specs) < 5:
        raise ConfigurationError(
            f"need >= 5 training workloads for the 5-feature model, "
            f"got {len(training_specs)}"
        )
    client = client if client is not None else YCSBClient()
    engine = SensitivityEngine(engine_factory, system_factory, client)

    rows, y_read, y_write = [], [], []
    training_cost = 0.0
    for spec in training_specs:
        trace = generate_trace(spec)
        baselines = engine.measure(trace)
        rows.append(_features(baselines.slow, trace))
        y_read.append(baselines.fast.avg_read_ns)
        y_write.append(baselines.fast.avg_write_ns)
        # collecting one training example costs both baseline executions
        training_cost += baselines.fast.runtime_ns + baselines.slow.runtime_ns

    x = np.array(rows)
    read_coef, *_ = np.linalg.lstsq(x, np.array(y_read), rcond=None)
    write_coef, *_ = np.linalg.lstsq(x, np.array(y_write), rcond=None)
    return FastBaselineModel(
        read_coef=read_coef,
        write_coef=write_coef,
        training_cost_ns=training_cost,
        n_training_workloads=len(training_specs),
    )


@dataclass(frozen=True)
class MLProfileResult:
    """Output of a Tahoe-style profiling run."""

    baselines: PerformanceBaselines  # fast is *inferred*, slow is measured
    cost: ProfilingCost


class MLBaselineProfiler:
    """The Tahoe-like comparator: one measured run + model inference."""

    def __init__(
        self,
        model: FastBaselineModel,
        engine_factory: EngineFactory,
        system_factory=HybridMemorySystem.testbed,
        client: YCSBClient | None = None,
        amortize_training: bool = False,
    ):
        self.model = model
        self.engine_factory = engine_factory
        self.system_factory = system_factory
        self.client = client if client is not None else YCSBClient()
        self.amortize_training = amortize_training

    def profile(self, trace: Trace) -> MLProfileResult:
        """Measure SlowMem-only, infer FastMem-only."""
        from repro.kvstore.server import HybridDeployment  # local to avoid cycle

        slow_dep = HybridDeployment.all_slow(
            self.engine_factory, self.system_factory(), trace.record_sizes
        )
        slow = self.client.execute(trace, slow_dep)
        fast = self.model.predict(slow, trace)
        training = 0.0 if self.amortize_training else self.model.training_cost_ns
        cost = ProfilingCost(
            input_prep_ns=0.0,
            baselines_ns=training + slow.runtime_ns,
            tiering_ns=0.0,
            requires_source_instrumentation=False,
        )
        return MLProfileResult(
            baselines=PerformanceBaselines(fast=fast, slow=slow),
            cost=cost,
        )
