"""Request-key distributions (YCSB-style).

Implements the distributions of the paper's Figure 3 over a dense key
space ``0 .. n_keys-1``:

- ``zipfian``: Zipf with YCSB's default constant θ = 0.99; the hottest
  keys sit at the *start* of the key range.
- ``scrambled_zipfian``: same popularity mass, but ranks are scattered
  across the key space with an FNV-1a hash (YCSB's scrambling).
- ``hotspot``: a contiguous hot set receives a fixed fraction of the
  operations (YCSB hotspot: 20 % of keys get 80 % of requests by
  default; the paper's Trending workloads use this shape).
- ``latest``: popularity follows recency.  We model the News-Feed
  behaviour the paper describes — the hot window *slides* through the
  key space over the run, so almost every key is hot at some point and
  static placement captures little (Fig 9: News Feed shows nearly no
  cost-reduction opportunity).
- ``exponential``: YCSB's exponential generator — popularity decays
  exponentially with the key id; ``exp_frac`` of the mass sits in the
  first ``exp_percentile`` of the key space (YCSB defaults: 95 % in
  the first 10 %).
- ``uniform`` and ``sequential`` for completeness.

Sampling is fully vectorized: popularity weights are materialised once
per (distribution, n_keys) and requests are drawn with inverse-CDF
searchsorted in a single pass, the CDF steps probing the sorted draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import SeedLike, ensure_rng

#: YCSB's default zipfian constant.
ZIPFIAN_CONSTANT = 0.99

_KNOWN = ("zipfian", "scrambled_zipfian", "hotspot", "latest", "uniform",
          "sequential", "exponential")


@dataclass(frozen=True)
class DistributionSpec:
    """A named key distribution with its parameters.

    Parameters
    ----------
    name:
        One of ``zipfian``, ``scrambled_zipfian``, ``hotspot``,
        ``latest``, ``uniform``, ``sequential``.
    theta:
        Zipf constant for the zipfian family (default 0.99).
    hot_data_fraction / hot_op_fraction:
        Hotspot parameters: the first ``hot_data_fraction`` of the key
        space receives ``hot_op_fraction`` of the operations.
    window_fraction:
        For ``latest``: size of the sliding recency window as a
        fraction of the key space.
    exp_percentile / exp_frac:
        For ``exponential``: *exp_frac* of the probability mass falls
        in the first *exp_percentile* of the key space (YCSB defaults
        0.95 in 0.10).
    """

    name: str
    theta: float = ZIPFIAN_CONSTANT
    hot_data_fraction: float = 0.2
    hot_op_fraction: float = 0.8
    window_fraction: float = 0.1
    exp_percentile: float = 0.10
    exp_frac: float = 0.95

    def __post_init__(self) -> None:
        if self.name not in _KNOWN:
            raise ConfigurationError(
                f"unknown distribution {self.name!r}; known: {_KNOWN}"
            )
        if not 0 < self.theta < 1:
            raise ConfigurationError(f"theta must be in (0, 1), got {self.theta}")
        for f in ("hot_data_fraction", "hot_op_fraction", "window_fraction",
                  "exp_percentile"):
            v = getattr(self, f)
            if not 0 < v <= 1:
                raise ConfigurationError(f"{f} must be in (0, 1], got {v}")
        if not 0 < self.exp_frac < 1:
            raise ConfigurationError(
                f"exp_frac must be in (0, 1), got {self.exp_frac}"
            )


def _fnv1a_64(values: np.ndarray) -> np.ndarray:
    """Vectorized FNV-1a over the 8 little-endian bytes of each value.

    This is YCSB's ``FNVhash64`` applied byte-wise, which is what the
    scrambled-zipfian generator uses to scatter hot ranks.
    """
    offset = np.uint64(0xCBF29CE484222325)
    prime = np.uint64(0x100000001B3)
    v = values.astype(np.uint64)
    h = np.full(v.shape, offset, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for shift in range(0, 64, 8):
            octet = (v >> np.uint64(shift)) & np.uint64(0xFF)
            h = (h ^ octet) * prime
    return h


def zipfian_weights(n_keys: int, theta: float = ZIPFIAN_CONSTANT) -> np.ndarray:
    """Unnormalised Zipf weights ``1 / rank^theta`` for ranks 1..n."""
    if n_keys <= 0:
        raise ConfigurationError(f"n_keys must be positive, got {n_keys}")
    ranks = np.arange(1, n_keys + 1, dtype=np.float64)
    return ranks ** -theta


def key_probabilities(spec: DistributionSpec, n_keys: int) -> np.ndarray:
    """Stationary per-key request probability for *spec*.

    For ``latest`` this is the *time-averaged* probability (the window
    slides uniformly), which is what first-touch/static analyses see.
    """
    if n_keys <= 0:
        raise ConfigurationError(f"n_keys must be positive, got {n_keys}")
    name = spec.name
    if name == "zipfian":
        w = zipfian_weights(n_keys, spec.theta)
    elif name == "scrambled_zipfian":
        w = np.zeros(n_keys)
        ranks = zipfian_weights(n_keys, spec.theta)
        targets = (_fnv1a_64(np.arange(n_keys)) % np.uint64(n_keys)).astype(np.int64)
        np.add.at(w, targets, ranks)
    elif name == "hotspot":
        hot_n = max(1, int(round(spec.hot_data_fraction * n_keys)))
        w = np.full(n_keys, (1.0 - spec.hot_op_fraction) / max(1, n_keys - hot_n))
        w[:hot_n] = spec.hot_op_fraction / hot_n
        if hot_n == n_keys:
            w[:] = 1.0 / n_keys
    elif name == "latest":
        # time-average of a sliding zipfian window ~ near-uniform with a
        # mild recency tilt toward late keys (they are hot at the end).
        w = np.ones(n_keys)
    elif name == "exponential":
        # rate gamma so that P(key < exp_percentile * n) = exp_frac
        gamma = -np.log(1.0 - spec.exp_frac) / (spec.exp_percentile * n_keys)
        w = np.exp(-gamma * np.arange(n_keys))
    elif name in ("uniform", "sequential"):
        w = np.ones(n_keys)
    else:  # pragma: no cover - guarded by DistributionSpec
        raise ConfigurationError(name)
    return w / w.sum()


def _inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Index of the CDF step each uniform draw in *u* falls on (int64).

    The steps are bisected into the sorted draws, not the draws into
    the steps: consecutive step ends count the draws on each step — the
    same comparisons and integers as ``searchsorted(cdf, u, "right")``.
    The last step is pinned to 1.0 (in place) so rounding in the
    cumulative sum can never push a draw past the end.
    """
    cdf[-1] = 1.0
    order = np.argsort(u)
    ends = np.searchsorted(u[order], cdf, side="left")
    out = np.empty(u.size, dtype=np.int64)
    out[order] = np.repeat(np.arange(cdf.size), np.diff(ends, prepend=0))
    return out


def sample_keys(
    spec: DistributionSpec,
    n_keys: int,
    n_requests: int,
    seed: SeedLike = None,
) -> np.ndarray:
    """Draw *n_requests* key ids according to *spec* (vectorized)."""
    if n_requests < 0:
        raise ConfigurationError(f"n_requests must be >= 0, got {n_requests}")
    rng = ensure_rng(seed)
    if spec.name == "sequential":
        return np.arange(n_requests, dtype=np.int64) % n_keys
    if spec.name == "latest":
        return _sample_latest(spec, n_keys, n_requests, rng)
    cdf = np.cumsum(key_probabilities(spec, n_keys))
    return _inverse_cdf(cdf, rng.random(n_requests))


def _sample_latest(
    spec: DistributionSpec, n_keys: int, n_requests: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sliding-recency sampler for the ``latest`` distribution.

    Request *i*'s window head moves linearly through the key space;
    each request picks a zipfian-distributed offset *behind* the head
    within the window, so the newest keys are always the most popular —
    but which keys are "newest" changes throughout the run.
    """
    if n_requests == 0:
        return np.empty(0, dtype=np.int64)
    window = max(1, int(round(spec.window_fraction * n_keys)))
    heads = np.linspace(window - 1, n_keys - 1, n_requests)
    w = zipfian_weights(window, spec.theta)
    offsets = _inverse_cdf(np.cumsum(w / w.sum()), rng.random(n_requests))
    keys = np.floor(heads).astype(np.int64) - offsets
    return np.clip(keys, 0, n_keys - 1)


def empirical_cdf_over_keys(keys: np.ndarray, n_keys: int) -> np.ndarray:
    """Figure 3's curve: cumulative request probability by key id.

    ``out[k]`` is the probability that a request's key id is <= ``k``.
    """
    counts = np.bincount(np.asarray(keys, dtype=np.int64), minlength=n_keys)
    total = counts.sum()
    if total == 0:
        raise ConfigurationError("empty trace")
    return np.cumsum(counts) / total
