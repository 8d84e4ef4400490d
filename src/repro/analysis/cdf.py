"""Empirical CDFs (paper Figures 3 and 4)."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.ycsb.workload import Trace


def empirical_cdf(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sorted values, cumulative probability) for *samples*."""
    samples = np.asarray(samples)
    if samples.size == 0:
        raise ConfigurationError("cannot build a CDF from no samples")
    xs = np.sort(samples, kind="stable")
    ps = np.arange(1, xs.size + 1) / xs.size
    return xs, ps


def key_space_cdf(trace: Trace) -> tuple[np.ndarray, np.ndarray]:
    """Figure 3's curve: P(requested key id <= k) over the key space.

    Returns (key ids 0..n-1, cumulative request probability).
    """
    counts = trace.access_counts()
    cum = np.cumsum(counts) / trace.n_requests
    return np.arange(trace.n_keys), cum


def size_cdf(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Figure 4's curve: CDF of record sizes (bytes on a log axis)."""
    return empirical_cdf(np.asarray(sizes, dtype=np.float64))


def coverage_fraction(trace: Trace, request_share: float) -> float:
    """Smallest fraction of (hottest-first) keys serving *request_share*
    of requests — e.g. 0.9 -> "the hottest X% of keys serve 90%"."""
    if not 0 < request_share <= 1:
        raise ConfigurationError("request_share must be in (0, 1]")
    counts = trace.access_counts()
    hot_first = np.sort(counts)[::-1]
    cum = np.cumsum(hot_first) / trace.n_requests
    n_hot = int(np.searchsorted(cum, request_share, side="left")) + 1
    return n_hot / trace.n_keys
