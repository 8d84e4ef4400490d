"""Tests for the validation helpers (measured points vs estimate)."""

import re

import numpy as np
import pytest

from repro.core import (
    Mnemo,
    estimate_errors,
    measure_curve,
    prefix_counts,
)
from repro.core.validate import MeasuredPoint
from repro.cost.model import cost_reduction_factor
from repro.errors import CapacityError, ConfigurationError
from repro.kvstore import HybridDeployment, RedisLike
from repro.memsim import HybridMemorySystem
from repro.ycsb import YCSBClient


def deployment_curve(trace, order, engine_factory, counts, client,
                     system_factory=HybridMemorySystem.testbed, p=0.2):
    """Oracle: the curve as measured through one capacity-checked
    :class:`HybridDeployment` per point."""
    order = np.asarray(order, dtype=np.int64)
    system = system_factory()
    deployments = []
    for n_fast in counts:
        if not 0 <= n_fast <= order.size:
            raise ConfigurationError(
                f"prefix {n_fast} outside [0, {order.size}]"
            )
        deployments.append(HybridDeployment(
            engine_factory, system, trace.record_sizes,
            fast_keys=order[:n_fast],
        ))
    results = client.execute_placements(
        trace, [d.fast_mask for d in deployments],
        engine_factory(system.fast, system.slow).profile, system,
    )
    total = int(trace.record_sizes.sum())
    return [
        MeasuredPoint(
            n_fast_keys=int(n_fast), fast_bytes=d.fast_bytes(),
            cost_factor=float(cost_reduction_factor(d.fast_bytes(), total, p)),
            result=result,
        )
        for n_fast, d, result in zip(counts, deployments, results)
    ]


@pytest.fixture
def setup(small_trace, quiet_client):
    report = Mnemo(engine_factory=RedisLike, client=quiet_client).profile(
        small_trace
    )
    counts = prefix_counts(small_trace.n_keys, 5)
    points = measure_curve(
        small_trace, report.pattern.order, RedisLike, counts,
        client=quiet_client,
    )
    return report, counts, points


class TestPrefixCounts:
    def test_endpoints_included(self):
        counts = prefix_counts(100, 5)
        assert counts[0] == 0 and counts[-1] == 100

    def test_evenly_spaced(self):
        assert prefix_counts(100, 5) == [0, 25, 50, 75, 100]

    def test_needs_two_points(self):
        with pytest.raises(ConfigurationError):
            prefix_counts(100, 1)


class TestMeasureCurve:
    def test_point_metadata(self, setup, small_trace):
        _, counts, points = setup
        assert [p.n_fast_keys for p in points] == counts
        total = int(small_trace.record_sizes.sum())
        assert points[0].fast_bytes == 0
        assert points[-1].fast_bytes == total
        assert points[0].cost_factor == pytest.approx(0.2)
        assert points[-1].cost_factor == pytest.approx(1.0)

    def test_throughput_improves_with_fast_share(self, setup):
        _, _, points = setup
        thr = [p.result.throughput_ops_s for p in points]
        assert thr[-1] > thr[0]

    def test_out_of_range_count_rejected(self, small_trace, quiet_client):
        report = Mnemo(engine_factory=RedisLike,
                       client=quiet_client).profile(small_trace)
        with pytest.raises(ConfigurationError):
            measure_curve(small_trace, report.pattern.order, RedisLike,
                          [small_trace.n_keys + 1], client=quiet_client)


class TestCurveWithoutDeployments:
    """A curve checks its prefixes' bytes against the nodes instead of
    building a deployment per point: the same points, the same errors."""

    @pytest.mark.parametrize("repeated", [False, True])
    def test_points_equal_the_deployment_path(self, small_trace, repeated):
        order = np.random.default_rng(4).permutation(small_trace.n_keys)
        if repeated:
            # a key named again counts once, wherever it comes back
            order = np.concatenate((order[:50], order[10:30], order[50:]))
        counts = prefix_counts(order.size, 11)
        client = YCSBClient(repeats=3, seed=2)
        got = measure_curve(small_trace, order, RedisLike, counts,
                            client=client)
        want = deployment_curve(small_trace, order, RedisLike, counts,
                                client)
        assert got == want
        assert [type(p.fast_bytes) for p in got] == [int] * len(got)

    @staticmethod
    def systems(small_trace):
        total = int(small_trace.record_sizes.sum())
        return {
            "fast_full": lambda: HybridMemorySystem.testbed(
                fast_capacity_bytes=total // 3),
            "slow_full": lambda: HybridMemorySystem.testbed(
                slow_capacity_bytes=total // 3),
        }

    CASES = {
        "past_the_order": (None, [0, 10**6], "testbed"),
        "negative_prefix": (None, [5, -1], "testbed"),
        "negative_key": (-1, [0, 5, 6], "testbed"),
        "key_past_the_space": ("n", [0, 5, 6, 200], "testbed"),
        "bad_key_after_the_range_error": (-1, [10**6, 6], "testbed"),
        "fast_node_full": (None, [0, 50, 200], "fast_full"),
        "slow_node_full": (None, [200, 0], "slow_full"),
        "the_first_failing_point": (None, [0, 200, 10**6], "fast_full"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_errors_match_case_by_case(self, small_trace, case):
        bad, counts, system = self.CASES[case]
        order = np.arange(small_trace.n_keys)
        if bad is not None:
            order[5] = small_trace.n_keys if bad == "n" else bad
        factory = self.systems(small_trace).get(
            system, HybridMemorySystem.testbed)
        client = YCSBClient(repeats=1, noise_sigma=0.0)
        with pytest.raises((ConfigurationError, CapacityError)) as want:
            deployment_curve(small_trace, order, RedisLike, counts, client,
                             system_factory=factory)
        with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
            measure_curve(small_trace, order, RedisLike, counts,
                          client=client, system_factory=factory)


class TestEstimateErrors:
    def test_noiseless_uniform_sizes_exact(self, small_spec, quiet_client):
        """With noise off and constant record sizes the model is exact:
        every request saves exactly the average delta."""
        from dataclasses import replace
        from repro.ycsb import generate_trace
        from repro.ycsb.sizes import SizeModel

        spec = replace(
            small_spec, name="uniform_sizes",
            size_model=SizeModel(name="const", median_bytes=100_000, sigma=0.0),
        )
        trace = generate_trace(spec)
        report = Mnemo(engine_factory=RedisLike,
                       client=quiet_client).profile(trace)
        counts = prefix_counts(trace.n_keys, 5)
        points = measure_curve(trace, report.pattern.order, RedisLike,
                               counts, client=quiet_client)
        errors = estimate_errors(report.curve, points)
        assert np.abs(errors).max() < 1e-9

    def test_noiseless_mixed_sizes_small_model_error(self, setup):
        """Varying record sizes leave only the size-mixing approximation;
        it stays well under 1 % (the paper's model error regime)."""
        report, _, points = setup
        errors = estimate_errors(report.curve, points)
        assert 0 < np.abs(errors).max() < 1.0

    def test_noisy_errors_small(self, small_trace):
        """With 1 % noise the paper-style median error stays tiny."""
        client = YCSBClient(repeats=3, noise_sigma=0.01, seed=2)
        report = Mnemo(engine_factory=RedisLike, client=client).profile(
            small_trace
        )
        counts = prefix_counts(small_trace.n_keys, 6)
        points = measure_curve(small_trace, report.pattern.order, RedisLike,
                               counts, client=client)
        errors = estimate_errors(report.curve, points)
        assert np.median(np.abs(errors)) < 0.5  # percent

    def test_latency_metric(self, setup):
        report, _, points = setup
        errors = estimate_errors(report.curve, points, metric="avg_latency")
        assert np.abs(errors).max() < 1.0  # same size-mixing regime

    def test_unknown_metric_rejected(self, setup):
        report, _, points = setup
        with pytest.raises(ConfigurationError):
            estimate_errors(report.curve, points, metric="p99")
