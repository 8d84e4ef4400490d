"""Tests for the access-time model."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.memsim import AccessTimer, NoiseModel
from repro.memsim import timing


def times(timer, sizes, lat=100.0, bpns=1.0, passes=1.0, cpu=0.0, **kw):
    n = np.asarray(sizes, dtype=np.float64)
    return timer.request_times_ns(
        n, np.full(n.shape, lat), np.full(n.shape, bpns),
        np.full(n.shape, passes), np.full(n.shape, cpu), **kw,
    )


class TestNoiseModel:
    def test_zero_sigma_returns_equal_copy(self):
        # sigma == 0 must pass values through but never alias the input:
        # callers mutate returned times, and aliasing would corrupt the
        # base-time array shared across repeats/placements
        t = np.array([1.0, 2.0, 3.0])
        out = NoiseModel(sigma=0.0).apply(t, np.random.default_rng(0))
        assert out is not t
        assert np.array_equal(out, t)
        out[0] = 99.0
        assert t[0] == 1.0

    def test_noise_perturbs(self):
        t = np.ones(1000)
        out = NoiseModel(sigma=0.05).apply(t, np.random.default_rng(0))
        assert not np.array_equal(out, t)
        assert out.mean() == pytest.approx(1.0, rel=0.01)

    def test_noise_never_negative(self):
        t = np.ones(10_000)
        out = NoiseModel(sigma=2.0).apply(t, np.random.default_rng(0))
        assert (out > 0).all()

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            NoiseModel(sigma=-0.1)


class TestNoiseClosedForm:
    """`moments` and `cdf` are the law `apply` draws from."""

    def test_unclamped_moments_are_exact(self):
        # Phi(-99.9) and phi(-99.9) underflow to 0.0: (1, sigma^2) exactly
        assert NoiseModel(sigma=0.01).moments() == (1.0, 0.01 ** 2)
        mean, var = NoiseModel(sigma=0.01).moments(np.array([1.0, 5.0]))
        assert list(mean) == [1.0, 1.0]
        assert list(var) == [0.01 ** 2, 0.05 ** 2]

    @pytest.mark.parametrize("sigma", [0.3, 0.5, 1.0])
    def test_clamped_moments_match_draws(self, sigma):
        noise = NoiseModel(sigma=sigma)
        factors = noise.apply(np.ones(400_000), np.random.default_rng(3))
        mean, var = noise.moments()
        se = math.sqrt(var / factors.size)
        assert mean > 1.0  # the floor lifts the mean once it binds
        assert abs(factors.mean() - mean) < 4 * se
        assert factors.var() == pytest.approx(var, rel=0.02)

    def test_cdf_matches_draws(self):
        noise = NoiseModel(sigma=0.5)
        times = np.array([100.0, 250.0])
        draws = noise.apply(np.repeat(times, 200_000),
                            np.random.default_rng(4)).reshape(2, -1)
        for x in (0.05, 50.0, 100.0, 180.0, 400.0):
            cdf, density = noise.cdf(x, times)
            assert cdf == pytest.approx((draws <= x).mean(axis=1), abs=0.005)
            assert ((density > 0) == (x >= 1e-3 * times)).all()
        # below the floor nothing runs: both are 0
        assert noise.cdf(0.05, times)[0].tolist() == [0.0, 0.0]


class TestErfcTable:
    """Phi in the percentile solve is erfc from a quintic Hermite table
    (``timing._erfc``): knots 1/64 apart on [-6.5, 6.5], clamped
    beyond."""

    def test_within_2e_14_of_math_erfc(self):
        knots = np.arange(-416, 417) / 64.0
        grid = np.concatenate((
            np.linspace(-8.0, 8.0, 200_001), knots, knots[:-1] + 1 / 128,
            [6.5, -6.5, 6.5 + 1e-12, -6.5 - 1e-12, 7.0, -7.0, 40.0, -40.0,
             1e300, -1e300, 0.0, -0.0],
        ))
        got = timing._erfc(grid)
        want = np.array([math.erfc(u) for u in grid.tolist()])
        assert np.abs(got - want).max() <= 2e-14

    def test_clamps_to_the_limits_and_keeps_its_input(self):
        u = np.array([6.5 + 1e-9, 9.0, 1e300, -6.5 - 1e-9, -9.0, -1e300])
        assert timing._erfc(u).tolist() == [0.0] * 3 + [2.0] * 3
        assert u[1] == 9.0
        assert timing._erfc(np.array([0.0, -0.0])).tolist() == [1.0, 1.0]


class TestAccessTimer:
    def test_noiseless_formula(self):
        timer = AccessTimer(noise=NoiseModel(sigma=0.0))
        out = times(timer, [1000.0], lat=100.0, bpns=2.0, passes=3.0, cpu=50.0)
        assert out[0] == pytest.approx(50.0 + 3.0 * (100.0 + 500.0))

    def test_zero_passes_is_cpu_only(self):
        timer = AccessTimer(noise=NoiseModel(sigma=0.0))
        out = times(timer, [1000.0], passes=0.0, cpu=77.0)
        assert out[0] == pytest.approx(77.0)

    def test_cache_hit_replaces_memory_term(self):
        timer = AccessTimer(noise=NoiseModel(sigma=0.0))
        out = times(
            timer, [1000.0, 1000.0], lat=100.0, bpns=1.0, passes=1.0, cpu=10.0,
            cached=np.array([True, False]), cache_latency_ns=12.0,
        )
        assert out[0] == pytest.approx(22.0)
        assert out[1] == pytest.approx(1110.0)

    def test_noisy_flag_disables_noise(self):
        timer = AccessTimer(noise=NoiseModel(sigma=0.5), seed=1)
        a = times(timer, np.ones(100) * 100, noisy=False)
        assert np.allclose(a, a[0])

    def test_seeded_noise_reproducible(self):
        a = times(AccessTimer(seed=9), np.ones(50) * 100)
        b = times(AccessTimer(seed=9), np.ones(50) * 100)
        assert np.array_equal(a, b)

    def test_vector_shapes_preserved(self):
        timer = AccessTimer(noise=NoiseModel(sigma=0.0))
        out = times(timer, np.arange(1, 11, dtype=float))
        assert out.shape == (10,)
        assert (np.diff(out) > 0).all()  # bigger transfers take longer
