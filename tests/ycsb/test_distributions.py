"""Tests for the request-key distributions."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.ycsb.distributions import (
    DistributionSpec,
    _inverse_cdf,
    empirical_cdf_over_keys,
    key_probabilities,
    sample_keys,
    zipfian_weights,
)

N_KEYS = 1_000
N_REQ = 50_000


def spec(name, **kw):
    return DistributionSpec(name=name, **kw)


class TestSpecValidation:
    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            spec("pareto")

    def test_theta_range(self):
        with pytest.raises(ConfigurationError):
            spec("zipfian", theta=1.0)

    def test_fraction_ranges(self):
        with pytest.raises(ConfigurationError):
            spec("hotspot", hot_data_fraction=0.0)
        with pytest.raises(ConfigurationError):
            spec("hotspot", hot_op_fraction=1.5)


class TestZipfianWeights:
    def test_monotone_decreasing(self):
        w = zipfian_weights(100)
        assert (np.diff(w) < 0).all()

    def test_first_rank_is_one(self):
        assert zipfian_weights(10)[0] == 1.0

    def test_invalid_n(self):
        with pytest.raises(ConfigurationError):
            zipfian_weights(0)


class TestKeyProbabilities:
    @pytest.mark.parametrize("name", [
        "zipfian", "scrambled_zipfian", "hotspot", "latest", "uniform",
    ])
    def test_sums_to_one(self, name):
        p = key_probabilities(spec(name), N_KEYS)
        assert p.shape == (N_KEYS,)
        assert p.sum() == pytest.approx(1.0)

    def test_zipfian_hot_keys_at_start(self):
        p = key_probabilities(spec("zipfian"), N_KEYS)
        assert p[0] == p.max()
        assert p[:10].sum() > p[-10:].sum()

    def test_scrambled_spreads_mass(self):
        p = key_probabilities(spec("scrambled_zipfian"), N_KEYS)
        # same total hot mass as zipfian but the top key is NOT key 0 in general
        top = np.argsort(p)[::-1][:10]
        assert not np.array_equal(np.sort(top), np.arange(10))

    def test_scrambled_preserves_mass_distribution(self):
        pz = np.sort(key_probabilities(spec("zipfian"), N_KEYS))[::-1]
        ps = np.sort(key_probabilities(spec("scrambled_zipfian"), N_KEYS))[::-1]
        # scrambling can merge ranks onto one key, but the head mass matches
        assert ps[:100].sum() == pytest.approx(pz[:100].sum(), rel=0.05)

    def test_hotspot_shape(self):
        p = key_probabilities(
            spec("hotspot", hot_data_fraction=0.2, hot_op_fraction=0.8), N_KEYS
        )
        assert p[:200].sum() == pytest.approx(0.8)
        assert p[200:].sum() == pytest.approx(0.2)
        # uniform within each region
        assert np.allclose(p[:200], p[0])
        assert np.allclose(p[200:], p[-1])

    def test_uniform_flat(self):
        p = key_probabilities(spec("uniform"), N_KEYS)
        assert np.allclose(p, 1.0 / N_KEYS)


class TestSampling:
    @pytest.mark.parametrize("name", [
        "zipfian", "scrambled_zipfian", "hotspot", "latest", "uniform",
        "sequential",
    ])
    def test_keys_in_range(self, name):
        keys = sample_keys(spec(name), N_KEYS, N_REQ, seed=1)
        assert keys.shape == (N_REQ,)
        assert keys.min() >= 0 and keys.max() < N_KEYS

    def test_deterministic(self):
        a = sample_keys(spec("zipfian"), N_KEYS, 1000, seed=5)
        b = sample_keys(spec("zipfian"), N_KEYS, 1000, seed=5)
        assert np.array_equal(a, b)

    def test_seeds_differ(self):
        a = sample_keys(spec("zipfian"), N_KEYS, 1000, seed=5)
        b = sample_keys(spec("zipfian"), N_KEYS, 1000, seed=6)
        assert not np.array_equal(a, b)

    def test_hotspot_empirical_fractions(self):
        keys = sample_keys(
            spec("hotspot", hot_data_fraction=0.2, hot_op_fraction=0.8),
            N_KEYS, N_REQ, seed=2,
        )
        hot_share = (keys < 200).mean()
        assert hot_share == pytest.approx(0.8, abs=0.01)

    def test_zipfian_empirical_matches_theory(self):
        keys = sample_keys(spec("zipfian"), N_KEYS, N_REQ, seed=3)
        p = key_probabilities(spec("zipfian"), N_KEYS)
        counts = np.bincount(keys, minlength=N_KEYS) / N_REQ
        assert counts[0] == pytest.approx(p[0], rel=0.05)

    def test_sequential_wraps(self):
        keys = sample_keys(spec("sequential"), 10, 25, seed=0)
        assert np.array_equal(keys, np.arange(25) % 10)

    def test_latest_window_moves(self):
        keys = sample_keys(spec("latest", window_fraction=0.1),
                           N_KEYS, N_REQ, seed=4)
        # early requests hit the low key range, late requests the high range
        assert keys[: N_REQ // 10].mean() < keys[-N_REQ // 10:].mean()

    def test_latest_covers_most_of_key_space(self):
        keys = sample_keys(spec("latest"), N_KEYS, N_REQ, seed=4)
        assert np.unique(keys).size > 0.9 * N_KEYS

    def test_negative_requests_rejected(self):
        with pytest.raises(ConfigurationError):
            sample_keys(spec("uniform"), 10, -1)

    def test_zero_requests_ok(self):
        assert sample_keys(spec("latest"), 10, 0).size == 0
        assert sample_keys(spec("zipfian"), 10, 0).size == 0

    @pytest.mark.parametrize("name", [
        "zipfian", "scrambled_zipfian", "hotspot", "exponential", "uniform",
    ])
    def test_sorted_probes_match_direct_searchsorted(self, name):
        # the draw-order bisection `sample_keys` used before it probed
        # the CDF in sorted order
        cdf = np.cumsum(key_probabilities(spec(name), N_KEYS))
        cdf[-1] = 1.0
        u = np.random.default_rng(9).random(5000)
        expect = np.searchsorted(cdf, u, side="right").astype(np.int64)
        got = sample_keys(spec(name), N_KEYS, 5000, seed=9)
        assert np.array_equal(got, expect) and got.dtype == expect.dtype

        # the edges: draws on a CDF step, u = 0, flat CDF segments
        # (zero-probability keys), and zero or one draw
        flat = cdf.copy()
        flat[40:60] = flat[40]
        flat[:3] = 0.0
        rng = np.random.default_rng(10)
        for steps in (cdf, flat):
            on_steps = rng.choice(steps[:-1], 300)
            edges = np.concatenate(([0.0, 0.0], on_steps, rng.random(300)))
            for u in (rng.permutation(edges), edges[:1], edges[2:3], edges[:0]):
                expect = np.searchsorted(steps, u, side="right")
                got = _inverse_cdf(steps.copy(), u)
                assert np.array_equal(got, expect)
                assert got.dtype == np.int64


class TestEmpiricalCdf:
    def test_monotone_and_bounded(self):
        keys = sample_keys(spec("zipfian"), N_KEYS, N_REQ, seed=1)
        cdf = empirical_cdf_over_keys(keys, N_KEYS)
        assert (np.diff(cdf) >= 0).all()
        assert cdf[-1] == pytest.approx(1.0)

    def test_zipfian_cdf_concave_head(self):
        """Fig 3: zipfian front-loads probability mass."""
        keys = sample_keys(spec("zipfian"), N_KEYS, N_REQ, seed=1)
        cdf = empirical_cdf_over_keys(keys, N_KEYS)
        assert cdf[N_KEYS // 10] > 0.5

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            empirical_cdf_over_keys(np.array([], dtype=np.int64), 10)
