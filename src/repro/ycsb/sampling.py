"""Workload downsampling (paper Section V-A, "Workload downsampling").

Real workloads can be too large (or unavailable) for profiling, so the
paper downsizes them "via random sampling, where we choose to evict from
the workload random key requests at fixed intervals" — fewer requests,
same key-distribution shape.  :func:`downsample` implements exactly
that; :func:`distribution_distance` quantifies how well the shape is
preserved.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import SeedLike, ensure_rng
from repro.ycsb.workload import Trace


def downsample(trace: Trace, factor: float, seed: SeedLike = None) -> Trace:
    """Shrink *trace* by *factor* via interval-random request eviction.

    The trace is cut into ``ceil(factor)``-request intervals; within
    each interval exactly one randomly chosen request survives, so the
    output has ``~n/factor`` requests while preserving both the key
    distribution and its temporal structure (important for ``latest``).

    Parameters
    ----------
    factor:
        Downsampling factor > 1 (e.g. 10 keeps ~10 % of requests).
    """
    if factor <= 1:
        raise ConfigurationError(f"factor must exceed 1, got {factor}")
    rng = ensure_rng(seed)
    n = trace.n_requests
    step = int(np.ceil(factor))
    starts = np.arange(0, n, step)
    widths = np.minimum(step, n - starts)
    picks = starts + (rng.random(starts.size) * widths).astype(np.int64)
    return Trace(
        name=f"{trace.name}@1/{factor:g}",
        keys=trace.keys[picks],
        is_read=trace.is_read[picks],
        record_sizes=trace.record_sizes,
    )


def distribution_distance(a: Trace, b: Trace) -> float:
    """Max CDF gap (Kolmogorov–Smirnov statistic) between two traces'
    key-request distributions over the same key space."""
    if a.n_keys != b.n_keys:
        raise ConfigurationError("traces cover different key spaces")
    ca = np.cumsum(a.access_counts() / a.n_requests)
    cb = np.cumsum(b.access_counts() / b.n_requests)
    return float(np.abs(ca - cb).max())
