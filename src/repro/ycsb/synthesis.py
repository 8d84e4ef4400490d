"""Workload synthesis from observed traces.

Section V-A: when the real workload is unavailable or too large, "the
user may either create a synthetic workload with similar request
distribution or downsize a real workload".  :mod:`repro.ycsb.sampling`
covers the second path; this module covers the first:

- :func:`fit_trace` characterises an observed trace — classifies the
  key distribution (hotspot / zipfian family / uniform / drifting),
  estimates its parameters, and fits a lognormal record-size model;
- :func:`synthesize` regenerates a fresh trace from the fitted
  characterisation at any requested scale.

The fit is intentionally simple (method-of-moments + rank-frequency
regression); its job is to preserve what Mnemo's model consumes — the
request CDF over keys, the read fraction, and the size distribution —
not to be a general trace synthesiser.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.rng import derive_seed
from repro.ycsb.distributions import DistributionSpec, sample_keys
from repro.ycsb.sizes import SizeModel
from repro.ycsb.workload import Trace


@dataclass(frozen=True)
class TraceCharacterisation:
    """Everything needed to regenerate a statistically similar trace."""

    name: str
    distribution: DistributionSpec
    read_fraction: float
    size_model: SizeModel
    n_keys: int
    n_requests: int
    #: diagnostic: Pearson r between request index and key id (drift)
    temporal_drift: float


def _estimate_theta(counts: np.ndarray) -> float:
    """Zipf exponent from a rank-frequency log-log regression.

    Uses only the head ranks — the tail is undersampled at finite
    trace lengths and flattens the slope — and clips into the
    YCSB-legal (0, 1) range.
    """
    freq = np.sort(counts[counts > 0])[::-1].astype(np.float64)
    n = int(np.clip(freq.size // 20, 2, 200))
    ranks = np.arange(1, n + 1, dtype=np.float64)
    slope = np.polyfit(np.log(ranks), np.log(freq[:n]), 1)[0]
    return float(np.clip(-slope, 0.05, 0.999))


def _hot_set_knee(counts: np.ndarray) -> tuple[int, float, float]:
    """Knee analysis of the hottest-first cumulative request share.

    Returns ``(k, op_share, sharpness)``: the knee index (size of the
    candidate hot set), the request share it serves, and the boundary
    sharpness — mean count just inside the knee over mean count just
    outside.  A hotspot distribution has a near-discontinuous boundary
    (sharpness >> 1); zipfian decays smoothly (sharpness ~ 1-2).
    """
    hot_first = np.sort(counts)[::-1].astype(np.float64)
    total = hot_first.sum()
    cum = np.cumsum(hot_first) / total
    rank_share = np.arange(1, counts.size + 1) / counts.size
    k = int(np.argmax(cum - rank_share)) + 1
    delta = max(1, k // 10)
    inside = hot_first[max(0, k - delta):k].mean()
    outside = hot_first[k:k + delta].mean()
    sharpness = float(inside / outside) if outside > 0 else np.inf
    return k, float(cum[k - 1]), sharpness


def _classify(trace: Trace) -> DistributionSpec:
    """Pick the distribution family that best matches the trace."""
    counts = trace.access_counts()
    n = trace.n_keys

    # temporal drift: latest-style workloads walk through the key space
    drift = _temporal_drift(trace)
    if drift > 0.6:
        touched = np.unique(trace.keys).size / n
        return DistributionSpec(
            name="latest",
            window_fraction=float(np.clip(1.05 - touched, 0.02, 1.0)),
        )

    cv = counts.std() / counts.mean() if counts.mean() else 0.0
    if cv < 0.5:
        return DistributionSpec(name="uniform")

    # hotspot: flat hot set with a near-discontinuous popularity drop at
    # its boundary; zipfian decays smoothly through the knee
    k_hot, op_share, sharpness = _hot_set_knee(counts)
    head = np.sort(counts)[::-1][:k_hot].astype(np.float64)
    head_cv = head.std() / head.mean()
    if sharpness > 3.0 and head_cv < 0.5:
        return DistributionSpec(
            name="hotspot",
            hot_data_fraction=float(np.clip(k_hot / n, 0.005, 1.0)),
            hot_op_fraction=float(np.clip(op_share, 0.05, 0.999)),
        )

    theta = _estimate_theta(counts)
    # zipfian concentrates on low key ids; scrambled spreads them
    top_ids = np.argsort(counts)[::-1][: max(2, n // 100)]
    if top_ids.mean() < 0.2 * n:
        return DistributionSpec(name="zipfian", theta=theta)
    return DistributionSpec(name="scrambled_zipfian", theta=theta)


def _temporal_drift(trace: Trace) -> float:
    """|Pearson r| between request position and key id (0 = stationary)."""
    if trace.n_requests < 2:
        return 0.0
    pos = np.arange(trace.n_requests, dtype=np.float64)
    keys = trace.keys.astype(np.float64)
    if keys.std() == 0:
        return 0.0
    return float(abs(np.corrcoef(pos, keys)[0, 1]))


def _fit_sizes(trace: Trace) -> SizeModel:
    """Lognormal fit of the record sizes (method of moments in log space)."""
    logs = np.log(trace.record_sizes.astype(np.float64))
    return SizeModel(
        name=f"{trace.name}_sizes",
        median_bytes=max(1, int(round(np.exp(logs.mean())))),
        sigma=float(logs.std()),
        min_bytes=int(trace.record_sizes.min()),
        max_bytes=int(trace.record_sizes.max()),
    )


def fit_trace(trace: Trace) -> TraceCharacterisation:
    """Characterise *trace* for synthesis."""
    if trace.n_requests == 0:
        raise WorkloadError("cannot characterise an empty trace")
    return TraceCharacterisation(
        name=trace.name,
        distribution=_classify(trace),
        read_fraction=trace.read_fraction,
        size_model=_fit_sizes(trace),
        n_keys=trace.n_keys,
        n_requests=trace.n_requests,
        temporal_drift=_temporal_drift(trace),
    )


def synthesize(
    characterisation: TraceCharacterisation,
    n_requests: int | None = None,
    seed: int = 0,
) -> Trace:
    """Generate a fresh trace from a fitted characterisation.

    The synthetic trace draws new keys, operation types and record
    sizes from the fitted models — it shares no randomness with the
    original, only its statistics.
    """
    c = characterisation
    n_req = n_requests if n_requests is not None else c.n_requests
    keys = sample_keys(c.distribution, c.n_keys, n_req,
                       seed=derive_seed(seed, f"{c.name}/synth-keys"))
    rng = np.random.default_rng(derive_seed(seed, f"{c.name}/synth-ops"))
    if c.read_fraction >= 1.0:
        is_read = np.ones(n_req, dtype=bool)
    elif c.read_fraction <= 0.0:
        is_read = np.zeros(n_req, dtype=bool)
    else:
        is_read = rng.random(n_req) < c.read_fraction
    sizes = c.size_model.sample(
        c.n_keys, seed=derive_seed(seed, f"{c.name}/synth-sizes")
    )
    return Trace(
        name=f"{c.name}@synthetic",
        keys=keys,
        is_read=is_read,
        record_sizes=sizes,
    )
