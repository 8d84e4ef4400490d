"""Validation helpers: measure real performance along a tiering order.

The paper validates Mnemo by comparing the estimate curve against real
executions at intermediate FastMem:SlowMem ratios (Fig 5 points vs the
solid estimate line; Fig 8a error boxplots).  :func:`measure_curve`
produces those real points, and :func:`estimate_errors` computes the
paper's percentage error ``(r - e) / r * 100`` between them and the
model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.cost.model import DEFAULT_PRICE_FACTOR, cost_reduction_factor
from repro.errors import ConfigurationError
from repro.kvstore.server import EngineFactory, check_capacity
from repro.memsim.system import HybridMemorySystem
from repro.ycsb.client import RunResult, YCSBClient
from repro.ycsb.workload import Trace
from repro.core.estimate import EstimateCurve


@dataclass(frozen=True)
class MeasuredPoint:
    """One real execution at an intermediate tiering."""

    n_fast_keys: int
    fast_bytes: int
    cost_factor: float
    result: RunResult


def prefix_counts(n_keys: int, n_points: int) -> list[int]:
    """Evenly spaced tiering prefixes from 0 to *n_keys* inclusive."""
    if n_points < 2:
        raise ConfigurationError(f"need at least 2 points, got {n_points}")
    return [int(round(x)) for x in np.linspace(0, n_keys, n_points)]


def measure_curve(
    trace: Trace,
    order: np.ndarray,
    engine_factory: EngineFactory,
    counts: Sequence[int],
    client: YCSBClient | None = None,
    system_factory: Callable[[], HybridMemorySystem] = HybridMemorySystem.testbed,
    p: float = DEFAULT_PRICE_FACTOR,
) -> list[MeasuredPoint]:
    """Execute *trace* at each tiering prefix in *counts*.

    Each point puts the first ``counts[i]`` keys of *order* on FastMem
    (a key repeated in *order* once), checks that placement against both
    nodes' capacities, as a :class:`HybridDeployment` would (the same
    errors, at the first point that fails), and runs the full workload
    against it; the points' masks are measured as one
    :meth:`~repro.ycsb.client.YCSBClient.execute_placements` batch,
    which gives each the numbers it measures alone.
    """
    client = client if client is not None else YCSBClient()
    order = np.asarray(order, dtype=np.int64)
    sizes = np.asarray(trace.record_sizes, dtype=np.int64)
    system = system_factory()
    # a prefix reaching a key outside the key space is an error; below
    # that, each key's first place in *order*, and each prefix's FastMem
    # bytes from one cumsum over the keys at their first place
    n_valid = int(np.argmin(np.append((order >= 0) & (order < sizes.size),
                                      False)))
    keys, first = np.unique(order[:n_valid], return_index=True)
    place = np.full(sizes.size, n_valid)
    place[keys] = first
    fast_bytes = np.zeros(n_valid + 1, dtype=np.int64)
    fast_bytes[first + 1] = sizes[keys]
    fast_bytes = np.cumsum(fast_bytes).tolist()
    total = int(sizes.sum())
    for n_fast in counts:
        if not 0 <= n_fast <= order.size:
            raise ConfigurationError(
                f"prefix {n_fast} outside [0, {order.size}]"
            )
        if n_fast > n_valid:
            raise ConfigurationError("fast_keys outside the key space")
        check_capacity(system, fast_bytes[n_fast], total)
    results = client.execute_placements(
        trace, [place < n_fast for n_fast in counts],
        engine_factory(system.fast, system.slow).profile, system,
    )
    return [
        MeasuredPoint(
            n_fast_keys=int(n_fast), fast_bytes=fast_bytes[n_fast],
            cost_factor=float(
                cost_reduction_factor(fast_bytes[n_fast], total, p)),
            result=result,
        )
        for n_fast, result in zip(counts, results)
    ]


def estimate_errors(
    curve: EstimateCurve,
    measured: Sequence[MeasuredPoint],
    metric: str = "throughput",
) -> np.ndarray:
    """Per-point percentage error ``(r - e) / r * 100`` (paper Section V-A).

    Parameters
    ----------
    metric:
        ``"throughput"`` (Fig 8a) or ``"avg_latency"`` (Fig 8c).
    """
    if metric not in ("throughput", "avg_latency"):
        raise ConfigurationError(f"unknown metric {metric!r}")
    errors = np.empty(len(measured))
    thr = curve.throughput_ops_s
    lat = curve.avg_latency_ns
    for i, point in enumerate(measured):
        if metric == "throughput":
            real = point.result.throughput_ops_s
            est = float(thr[point.n_fast_keys])
        else:
            real = point.result.avg_latency_ns
            est = float(lat[point.n_fast_keys])
        errors[i] = (real - est) / real * 100.0
    return errors
