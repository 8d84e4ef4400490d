"""Tests for the Estimate Engine."""

import numpy as np
import pytest

from repro.core import EstimateEngine, PatternEngine, SensitivityEngine
from repro.errors import EstimateError
from repro.kvstore import RedisLike


@pytest.fixture
def pipeline(small_trace, quiet_client):
    baselines = SensitivityEngine(RedisLike, client=quiet_client).measure(
        small_trace
    )
    pattern = PatternEngine(mode="touch").analyze(small_trace)
    curve = EstimateEngine(p=0.2).estimate(baselines, pattern)
    return small_trace, baselines, pattern, curve


class TestCurveStructure:
    def test_point_count(self, pipeline):
        trace, _, _, curve = pipeline
        n = trace.n_keys
        assert curve.n_keys == n
        for arr in (curve.fast_bytes, curve.cost_factor, curve.runtime_ns):
            assert arr.shape == (n + 1,)

    def test_endpoints_match_baselines(self, pipeline):
        _, baselines, _, curve = pipeline
        assert curve.runtime_ns[0] == pytest.approx(baselines.slow_runtime_ns)
        # noiseless baselines: the model telescopes exactly to the fast run
        assert curve.runtime_ns[-1] == pytest.approx(
            baselines.fast_runtime_ns, rel=1e-9
        )

    def test_cost_endpoints(self, pipeline):
        _, _, _, curve = pipeline
        assert curve.cost_factor[0] == pytest.approx(0.2)
        assert curve.cost_factor[-1] == pytest.approx(1.0)

    def test_runtime_monotone_nonincreasing(self, pipeline):
        _, _, _, curve = pipeline
        assert (np.diff(curve.runtime_ns) <= 1e-6).all()

    def test_throughput_monotone_nondecreasing(self, pipeline):
        _, _, _, curve = pipeline
        assert (np.diff(curve.throughput_ops_s) >= -1e-9).all()

    def test_cost_monotone_increasing(self, pipeline):
        _, _, _, curve = pipeline
        assert (np.diff(curve.cost_factor) > 0).all()

    def test_avg_latency_consistent(self, pipeline):
        _, _, _, curve = pipeline
        assert np.allclose(
            curve.avg_latency_ns * curve.n_requests, curve.runtime_ns
        )

    def test_capacity_ratio_range(self, pipeline):
        _, _, _, curve = pipeline
        assert curve.capacity_ratio[0] == 0.0
        assert curve.capacity_ratio[-1] == pytest.approx(1.0)


class TestEstimateFollowsDistribution:
    def test_hot_prefix_captures_most_gain(self, pipeline):
        """Fig 5a: the curve follows the access CDF — the hotspot's hot
        set recovers most of the throughput gap early."""
        trace, baselines, pattern, curve = pipeline
        thr = curve.throughput_ops_s
        total_gain = thr[-1] - thr[0]
        # prefix covering 30 % of keys (hot set is 20 % + touch noise)
        k = int(0.3 * curve.n_keys)
        assert thr[k] - thr[0] > 0.6 * total_gain


class TestLookups:
    def test_point_for_keys(self, pipeline):
        _, _, _, curve = pipeline
        point = curve.point_for_keys(10)
        assert point["n_fast_keys"] == 10
        assert point["cost_factor"] == pytest.approx(curve.cost_factor[10])

    def test_point_out_of_range(self, pipeline):
        _, _, _, curve = pipeline
        with pytest.raises(EstimateError):
            curve.point_for_keys(curve.n_keys + 1)

    def test_keys_for_ratio_inverse(self, pipeline):
        _, _, _, curve = pipeline
        k = curve.keys_for_ratio(0.5)
        assert curve.capacity_ratio[k] >= 0.5
        assert curve.capacity_ratio[max(0, k - 1)] < 0.5 or k == 0

    def test_keys_for_ratio_bounds(self, pipeline):
        _, _, _, curve = pipeline
        with pytest.raises(EstimateError):
            curve.keys_for_ratio(1.5)

    def test_throughput_at_cost_interpolates(self, pipeline):
        _, _, _, curve = pipeline
        t_lo = curve.throughput_at_cost(0.2)
        t_hi = curve.throughput_at_cost(1.0)
        t_mid = curve.throughput_at_cost(0.6)
        assert t_lo <= t_mid <= t_hi

    def test_throughput_at_cost_out_of_range(self, pipeline):
        _, _, _, curve = pipeline
        with pytest.raises(EstimateError):
            curve.throughput_at_cost(0.1)


class TestCsvOutput:
    def test_csv_format(self, pipeline, tmp_path):
        _, _, _, curve = pipeline
        path = curve.write_csv(tmp_path / "out.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "key,estimated_throughput_ops_s,cost_factor"
        assert len(lines) == curve.n_keys + 1
        first_key = int(lines[1].split(",")[0])
        assert first_key == int(curve.order[0])

    def test_csv_cost_ascends(self, pipeline, tmp_path):
        _, _, _, curve = pipeline
        path = curve.write_csv(tmp_path / "out.csv")
        costs = [float(l.split(",")[2])
                 for l in path.read_text().strip().splitlines()[1:]]
        assert costs == sorted(costs)


class TestErrors:
    def test_mismatched_baselines_detected(self, pipeline):
        """A nonsensical negative-runtime sweep must raise."""
        from dataclasses import replace
        trace, baselines, pattern, _ = pipeline
        broken = replace(
            baselines.slow,
            avg_read_ns=baselines.slow.avg_read_ns * 100,
        )
        from repro.core.sensitivity import PerformanceBaselines
        bad = PerformanceBaselines(fast=baselines.fast, slow=broken)
        with pytest.raises(EstimateError):
            EstimateEngine().estimate(bad, pattern)
