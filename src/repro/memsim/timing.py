"""Access-time model.

The cost of one key-value request against a memory node is modelled as

    t = cpu_ns + passes * (node latency + touched_bytes / node bandwidth)

where ``cpu_ns`` and ``passes`` come from the engine's sensitivity profile
(:mod:`repro.kvstore.profiles`) and the node parameters from Table I.  A
multiplicative noise term reproduces run-to-run measurement variability
(the paper reports the mean of multiple runs; our client does the same).

Everything here is vectorized and operands broadcast.  The law is
evaluated in one place, :func:`service_times_ns`: by the batch kernel
over the *key* space (``n_keys`` sizes, one node's scalar latency and
bandwidth, per-op passes and CPU as ``(2, 1)`` columns — the tables
every placement gathers from), by the same kernel over the *request*
axis only under an active fault spec (its timeline is indexed by time),
by the analytic predictor per key and op, and by :class:`AccessTimer`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class NoiseModel:
    """Multiplicative Gaussian noise on per-request service times.

    ``sigma`` is the relative standard deviation; each request time is
    multiplied by ``max(eps, 1 + sigma * z)`` with ``z ~ N(0, 1)``.
    ``sigma = 0`` disables noise (useful in unit tests).
    """

    sigma: float = 0.01

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ConfigurationError(f"noise sigma must be >= 0, got {self.sigma}")

    def apply(
        self,
        times_ns: np.ndarray,
        rng: np.random.Generator,
        scale: np.ndarray | None = None,
    ) -> np.ndarray:
        """Return a noisy copy of *times_ns* (always a fresh array).

        With ``sigma == 0`` the values pass through unchanged, but still
        as a *copy*: returning the input array would let a caller that
        mutates the result silently corrupt the ``times_ns`` it handed
        in (and anything else aliasing it).

        ``scale`` optionally multiplies sigma per request — the hook the
        jitter-burst fault model uses to widen noise inside a burst
        window without touching requests outside it.
        """
        if self.sigma == 0.0:
            return times_ns.copy()
        z = rng.standard_normal(times_ns.shape)
        if scale is not None:
            z = z * scale
        factors = 1.0 + self.sigma * z
        np.maximum(factors, 1e-3, out=factors)
        return times_ns * factors


def service_times_ns(
    sizes: np.ndarray,
    latency_ns: np.ndarray,
    bytes_per_ns: np.ndarray,
    passes: np.ndarray,
    cpu_ns: np.ndarray,
    cached: np.ndarray | None = None,
    cache_latency_ns: float = 0.0,
) -> np.ndarray:
    """Noise-free per-request service times (ns), fully vectorized.

    This is the one place the cost formula lives (callers: module
    docstring).  Each output element is one correctly rounded ÷, +, ×,
    + of its operands whatever their shapes, so a key-space table
    gathered into request order equals a request-length evaluation.
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    mem_ns = passes * (latency_ns + sizes / bytes_per_ns)
    if cached is not None:
        mem_ns = np.where(cached, cache_latency_ns, mem_ns)
    return cpu_ns + mem_ns


class AccessTimer:
    """Vectorized per-request access-cost calculator.

    Parameters
    ----------
    noise:
        The measurement-noise model; defaults to 1 % relative sigma.
    seed:
        Seed (or generator) for the noise stream.
    """

    def __init__(self, noise: NoiseModel | None = None, seed: SeedLike = None):
        self.noise = noise if noise is not None else NoiseModel()
        self._rng = ensure_rng(seed)

    def request_times_ns(
        self,
        sizes: np.ndarray,
        latency_ns: np.ndarray,
        bytes_per_ns: np.ndarray,
        passes: np.ndarray,
        cpu_ns: np.ndarray,
        cached: np.ndarray | None = None,
        cache_latency_ns: float = 0.0,
        noisy: bool = True,
        noise_scale: np.ndarray | None = None,
    ) -> np.ndarray:
        """Compute per-request service times in nanoseconds.

        Parameters
        ----------
        sizes:
            Bytes touched by each request (record size + metadata).
        latency_ns, bytes_per_ns:
            Per-request node parameters (already gathered by placement).
        passes:
            How many times the engine walks the record per request.
        cpu_ns:
            Fixed per-request CPU cost of the engine.
        cached:
            Optional boolean mask of LLC hits; hits replace the memory
            term with ``cache_latency_ns`` (data is already on-chip).
        cache_latency_ns:
            LLC hit latency.
        noisy:
            Apply the noise model (disable for analytic ground truth).
        noise_scale:
            Optional per-request sigma multipliers (jitter bursts).

        Returns
        -------
        numpy.ndarray
            Per-request times, same shape as *sizes*.
        """
        times = service_times_ns(
            sizes, latency_ns, bytes_per_ns, passes, cpu_ns,
            cached=cached, cache_latency_ns=cache_latency_ns,
        )
        if noisy:
            times = self.noise.apply(times, self._rng, scale=noise_scale)
        return times
