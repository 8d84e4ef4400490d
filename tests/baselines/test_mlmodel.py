"""Tests for the Tahoe-style ML baseline profiler."""

import pytest

from dataclasses import replace

from repro.baselines import MLBaselineProfiler, train_fast_baseline_model
from repro.core import EstimateEngine, Mnemo, PatternEngine
from repro.errors import ConfigurationError
from repro.kvstore import RedisLike
from repro.ycsb.distributions import DistributionSpec
from repro.ycsb.sizes import SizeModel
from repro.ycsb.workload import WorkloadSpec


def training_specs(n=6):
    """Diverse small workloads for model training."""
    specs = []
    dists = ["zipfian", "hotspot", "uniform", "scrambled_zipfian"]
    for i in range(n):
        specs.append(WorkloadSpec(
            name=f"train_{i}",
            distribution=DistributionSpec(name=dists[i % len(dists)]),
            read_fraction=[1.0, 0.8, 0.5][i % 3],
            size_model=SizeModel(
                name=f"s{i}", median_bytes=[100_000, 10_000, 50_000][i % 3],
                sigma=0.2,
            ),
            n_keys=100,
            n_requests=1_500,
            seed=100 + i,
        ))
    return specs


@pytest.fixture(scope="module")
def model():
    from repro.ycsb import YCSBClient

    return train_fast_baseline_model(
        training_specs(), RedisLike,
        client=YCSBClient(repeats=1, noise_sigma=0.0),
    )


class TestTraining:
    def test_needs_enough_workloads(self):
        with pytest.raises(ConfigurationError):
            train_fast_baseline_model(training_specs(3), RedisLike)

    def test_training_cost_accumulates(self, model):
        assert model.training_cost_ns > 0
        assert model.n_training_workloads == 6


class TestInference:
    def test_predicted_fast_baseline_close(self, model, small_trace,
                                           quiet_client):
        profiler = MLBaselineProfiler(model, RedisLike, client=quiet_client)
        result = profiler.profile(small_trace)
        real = Mnemo(engine_factory=RedisLike,
                     client=quiet_client).profile(small_trace)
        predicted = result.baselines.fast.runtime_ns
        actual = real.baselines.fast.runtime_ns
        # the linear model extrapolates well within the feature envelope
        assert predicted == pytest.approx(actual, rel=0.10)

    def test_slow_baseline_is_measured(self, model, small_trace,
                                       quiet_client):
        profiler = MLBaselineProfiler(model, RedisLike, client=quiet_client)
        result = profiler.profile(small_trace)
        real = Mnemo(engine_factory=RedisLike,
                     client=quiet_client).profile(small_trace)
        assert result.baselines.slow.runtime_ns == pytest.approx(
            real.baselines.slow.runtime_ns
        )

    def test_estimate_curve_buildable(self, model, small_trace,
                                      quiet_client):
        """Tahoe-style baselines drop into the Estimate Engine."""
        profiler = MLBaselineProfiler(model, RedisLike, client=quiet_client)
        result = profiler.profile(small_trace)
        pattern = PatternEngine(mode="weight").analyze(small_trace)
        curve = EstimateEngine().estimate(result.baselines, pattern)
        assert curve.n_keys == small_trace.n_keys


class TestCostAccounting:
    def test_training_cost_included_by_default(self, model, small_trace,
                                               quiet_client):
        profiler = MLBaselineProfiler(model, RedisLike, client=quiet_client)
        cost = profiler.profile(small_trace).cost
        assert cost.baselines_ns > model.training_cost_ns

    def test_amortized_excludes_training(self, model, small_trace,
                                         quiet_client):
        profiler = MLBaselineProfiler(
            model, RedisLike, client=quiet_client, amortize_training=True
        )
        cost = profiler.profile(small_trace).cost
        assert cost.baselines_ns < model.training_cost_ns

    def test_no_source_instrumentation(self, model, small_trace,
                                       quiet_client):
        profiler = MLBaselineProfiler(model, RedisLike, client=quiet_client)
        cost = profiler.profile(small_trace).cost
        assert not cost.requires_source_instrumentation
