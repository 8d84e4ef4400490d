"""Access-time model.

The cost of one key-value request against a memory node is modelled as

    t = cpu_ns + passes * (node latency + touched_bytes / node bandwidth)

where ``cpu_ns`` and ``passes`` come from the engine's sensitivity profile
(:mod:`repro.kvstore.profiles`) and the node parameters from Table I.  A
multiplicative noise term reproduces run-to-run measurement variability
(the paper reports the mean of multiple runs; our client does the same).

Everything here is vectorized and operands broadcast.  The law is
evaluated in one place, :func:`service_times_ns`.  Over the *key*
space it is :func:`service_tables` — one ``(2, n_keys)`` table per
tier — which the batch kernel gathers every placement from (on two
tiers or N), measuring or predicting.  The kernel
calls it over the *request* axis only under an active fault spec (its
timeline is indexed by time); the engines' scalar clock calls it on one
request, and :class:`AccessTimer` wraps it with noise.

:class:`NoiseModel` is the noise law's one home: ``apply`` draws it per
request, ``moments``, ``cdf`` and ``counter`` (``cdf`` weighted and
summed over the bins of a percentile's window, with its derivatives)
are the closed form the kernel uses.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import SeedLike, ensure_rng


#: The noise factor's floor: no request runs under 1/1000 of its time.
FACTOR_FLOOR = 1e-3


@dataclass(frozen=True)
class NoiseModel:
    """Multiplicative Gaussian noise on per-request service times.

    ``sigma`` is the relative standard deviation; each request time is
    multiplied by ``max(FACTOR_FLOOR, 1 + sigma * z)`` with
    ``z ~ N(0, 1)``, i.i.d. per request.  ``sigma = 0`` disables noise
    (useful in unit tests).
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
        np.maximum(factors, FACTOR_FLOOR, out=factors)
        return times_ns * factors

    def moments(self, scale=1.0):
        """Mean and variance of the factor at sigma times *scale* (> 0).

        The factor is ``1 + s max(a, z)`` with ``a = (FACTOR_FLOOR - 1) / s``:
        ``E max(a, z) = a Phi(a) + phi(a)``, ``E max(a, z)^2 = a^2 Phi(a)
        + 1 - Phi(a) + a phi(a)``.  At sigma = 0.01 Phi and phi of -99.9
        are 0.0 in float64, so the moments are exactly ``(1, sigma^2)``.
        """
        s = self.sigma * np.asarray(scale, dtype=np.float64)
        a = (FACTOR_FLOOR - 1.0) / s
        cdf, density = self.cdf(FACTOR_FLOOR, 1.0, scale)
        pdf = density * s
        m1 = a * cdf + pdf
        m2 = a * a * cdf + (1.0 - cdf) + a * pdf
        return 1.0 + s * m1, s * s * (m2 - m1 * m1)

    def cdf(self, x: float, times_ns, scale=1.0):
        """``P(t F <= x)`` and its density in *x*, per noise-free time *t*.

        Both are 0 below ``FACTOR_FLOOR t``; above, ``t F <= x`` is
        ``z <= (x / t - 1) / s``.  Phi is :func:`math.erfc` per point
        (a kernel calls it once): SciPy stays off the import path.
        """
        s = self.sigma * np.asarray(scale, dtype=np.float64)
        z = np.asarray((x / times_ns - 1.0) / s)
        cdf = 0.5 * np.array(_math_erfc(z * -math.sqrt(0.5)), np.float64)
        pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        live = x >= FACTOR_FLOOR * times_ns
        density = np.where(live, pdf / times_ns / s, 0.0)
        return np.where(live, cdf, 0.0), density

    def counter(self, times_ns, weights, scale, starts):
        """``count(x, rows) -> (counts, slopes, bends)``: for each row
        ``i`` in *rows* (ascending), at its ``x``, ``sum_j weights[j]
        P(times_ns[j] F <= x)`` over its cells ``starts[i]:starts[i +
        1]`` of the flat *times_ns*, *weights* and *scale* (at least
        one a row), and its first and second derivatives in x.

        :meth:`cdf`, weighted and summed, with its per-cell constants
        worked out once for the many x a solve tries: ``-z / sqrt(2)``
        is ``u = a - b x``, Phi is ``erfc(u) / 2`` (:func:`_erfc`), the
        density ``exp(-u^2) b / sqrt(pi)`` and its derivative the
        density times ``2 u b``, over the open rows' cells only.
        """
        a = np.broadcast_to(
            math.sqrt(0.5) / (self.sigma * np.asarray(scale, np.float64)),
            times_ns.shape,
        )
        b = a / times_ns
        slopes = weights * b / math.sqrt(math.pi)
        # per cell, the factors of erfc(u), exp(-u^2) and u exp(-u^2)
        factors = np.stack((0.5 * weights, slopes, 2.0 * slopes * b))
        floors = FACTOR_FLOOR * times_ns
        lowest = np.maximum.reduceat(floors, starts[:-1]).tolist()
        sizes = np.diff(starts)

        def count(x, rows):
            n, first, per_cell = sizes, starts[:-1], (a, b, factors, floors)
            if len(rows) < sizes.size:
                n = sizes[rows]
                first = np.cumsum(n) - n
                cell = np.arange(first[-1] + n[-1]) + np.repeat(
                    starts[rows] - first, n)
                per_cell = [v.take(cell, axis=-1) for v in per_cell]
            a_at, b_at, factors_at, floors_at = per_cell
            at = np.repeat(x, n)
            u = a_at - b_at * at
            pdf = np.exp(-u * u)
            terms = np.stack((_erfc(u), pdf, pdf * u)) * factors_at
            if any(xi < lowest[i] for xi, i in zip(x, rows)):
                terms *= at >= floors_at
            return np.add.reduceat(terms, first, axis=1)

        return count


_math_erfc = np.frompyfunc(math.erfc, 1, 1)


@functools.cache
def _erfc_table() -> np.ndarray:
    """erfc's quintic Hermite table, built on first use: per interval
    of 1/64 on [-6.5, 6.5] (beyond, erfc is 2 or 0 within 3.8e-20), row
    ``k`` the coefficients of ``t^k`` (``t`` from 0 to 1 across it) of
    the quintic that takes erfc (exact :func:`math.erfc` knots) and its
    analytic first two derivatives at both ends; then 0 from 6.5 up."""
    u = np.arange(-416, 417) / 64.0
    f = np.array(_math_erfc(u), np.float64)
    # the derivatives in t: in u, times the knot gap once and twice
    d1 = -2.0 / math.sqrt(math.pi) / 64.0 * np.exp(-u * u)
    d2 = -2.0 / 64.0 * u * d1
    rest = f[1:] - f[:-1] - d1[:-1] - 0.5 * d2[:-1]
    slope = d1[1:] - d1[:-1] - d2[:-1]
    bend = d2[1:] - d2[:-1]
    table = np.zeros((6, u.size))
    table[:, :-1] = (
        f[:-1], d1[:-1], 0.5 * d2[:-1],
        10.0 * rest - 4.0 * slope + 0.5 * bend,
        -15.0 * rest + 7.0 * slope - bend,
        6.0 * rest - 3.0 * slope + 0.5 * bend,
    )
    table.flags.writeable = False
    return table


def _erfc(u: np.ndarray) -> np.ndarray:
    """erfc over an array from its table (:func:`_erfc_table`): within
    1.2e-14 of :func:`math.erfc` everywhere, and no Python per value."""
    table = _erfc_table()
    at = (u + 6.5) * 64.0
    np.clip(at, 0.0, table.shape[1] - 1, out=at)
    knot = at.astype(np.intp)
    at -= knot
    out = table[5].take(knot)
    for k in (4, 3, 2, 1, 0):
        out *= at
        out += table[k].take(knot)
    return out


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


def service_tables(profile, record_sizes, latency_ns, bytes_per_ns,
                   pass_scale: float) -> np.ndarray:
    """The cost law over the key space: ``(n_tiers, 2, n_keys)`` ns.

    One ``(2, n_keys)`` table per tier (row 0 writes, row 1 reads) for
    *profile*'s engine over *record_sizes*; ``latency_ns`` and
    ``bytes_per_ns`` hold one value per tier, and ``pass_scale`` is the
    client's contention factor on the passes.
    """
    is_read = np.array([[False], [True]])
    passes = np.where(is_read, profile.read_passes, profile.write_passes)
    return service_times_ns(
        np.asarray(record_sizes) + profile.metadata_bytes,
        np.asarray(latency_ns, dtype=np.float64)[:, None, None],
        np.asarray(bytes_per_ns, dtype=np.float64)[:, None, None],
        passes * pass_scale,
        np.where(is_read, profile.read_cpu_ns, profile.write_cpu_ns),
    )


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
            Apply the noise model (disable for noise-free times).
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
