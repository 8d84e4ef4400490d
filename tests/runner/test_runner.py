"""Tests for the caching client and the parallel experiment runner."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.sensitivity import PerformanceBaselines, SensitivityEngine
from repro.core.descriptor import WorkloadDescriptor
from repro.errors import ConfigurationError
from repro.kvstore import RedisLike
from repro.memsim import HybridMemorySystem
from repro.memsim.kernel import BatchKernel
from repro.runner import (
    CachingClient,
    ClientConfig,
    ExperimentRunner,
    ExperimentSpec,
    split_fast_keys,
)
from repro.kvstore.server import HybridDeployment
from repro.store import SQLiteStore
from repro.ycsb import YCSBClient
from repro.ycsb.workload import Trace


@pytest.fixture
def cache(tmp_path):
    """A fresh result cache."""
    return SQLiteStore(tmp_path / "cache")


@pytest.fixture
def slow_deployment(small_trace):
    """All-SlowMem deployment for the small trace."""
    return HybridDeployment.all_slow(
        RedisLike, HybridMemorySystem.testbed(), small_trace.record_sizes
    )


class TestCachingClient:
    def test_hit_returns_identical_result(
        self, cache, small_trace, slow_deployment,
    ):
        client = CachingClient(cache=cache, repeats=2, seed=5)
        first = client.execute(small_trace, slow_deployment)
        second = client.execute(small_trace, slow_deployment)
        assert first == second
        assert client.cache_misses == 1 and client.cache_hits == 1

    def test_cached_equals_plain_client(
        self, cache, small_trace, slow_deployment,
    ):
        plain = YCSBClient(repeats=2, seed=5).execute(
            small_trace, slow_deployment
        )
        caching = CachingClient(cache=cache, repeats=2, seed=5)
        assert caching.execute(small_trace, slow_deployment) == plain
        # and the recalled copy is bit-identical too
        fresh = CachingClient(cache=cache, repeats=2, seed=5)
        assert fresh.execute(small_trace, slow_deployment) == plain

    def test_different_seeds_do_not_alias(
        self, cache, small_trace, slow_deployment,
    ):
        a = CachingClient(cache=cache, seed=1).execute(
            small_trace, slow_deployment
        )
        b = CachingClient(cache=cache, seed=2).execute(
            small_trace, slow_deployment
        )
        assert a != b

    def test_generator_seed_bypasses_cache(
        self, cache, small_trace, slow_deployment,
    ):
        client = CachingClient(
            cache=cache, seed=np.random.default_rng(0), repeats=1
        )
        client.execute(small_trace, slow_deployment)
        assert client.cache_hits == client.cache_misses == 0
        assert cache.stats().entries["results"] == 0

    def test_wrap_preserves_settings(self, cache):
        base = YCSBClient(
            repeats=4, noise_sigma=0.02, use_llc=True,
            seed=9, concurrency=2, contention=0.3,
        )
        wrapped = CachingClient.wrap(base, cache)
        assert wrapped.repeats == 4
        assert wrapped.noise.sigma == 0.02
        assert wrapped.use_llc is True
        assert wrapped.seed == 9
        assert wrapped.concurrency == 2
        assert wrapped.contention == 0.3

    def test_llc_hitmask_persisted_and_reused(
        self, cache, small_trace, slow_deployment,
    ):
        client = CachingClient(cache=cache, use_llc=True, seed=5, repeats=1)
        first = client.execute(small_trace, slow_deployment)
        assert cache.stats().entries["hitmasks"] == 1
        # a fresh client in a fresh process loads the mask from disk
        other = CachingClient(cache=cache, use_llc=True, seed=5, repeats=1)
        assert other.execute(small_trace, slow_deployment) == first


class TestExperimentSpec:
    def test_unknown_engine_rejected(self, small_spec):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(workload=small_spec, engine="mongodb")

    def test_unknown_placement_rejected(self, small_spec):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(workload=small_spec, placement="striped")

    def test_fraction_bounds(self, small_spec):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(
                workload=small_spec, placement="split", fast_fraction=1.5
            )

    def test_label(self, small_spec):
        spec = ExperimentSpec(
            workload=small_spec, engine="redis",
            placement="split", fast_fraction=0.25,
        )
        assert spec.label == "small_hotspot/redis/split0.25"


class TestSplitFastKeys:
    def test_respects_byte_budget(self, small_trace):
        keys = split_fast_keys(small_trace, 0.3)
        used = int(small_trace.record_sizes[keys].sum())
        assert used <= 0.3 * small_trace.record_sizes.sum()

    def test_zero_and_full(self, small_trace):
        assert split_fast_keys(small_trace, 0.0).size == 0
        full = split_fast_keys(small_trace, 1.0)
        assert full.size == small_trace.record_sizes.size

    def test_prefers_hot_keys(self, small_trace):
        keys = split_fast_keys(small_trace, 0.2)
        counts = np.bincount(
            small_trace.keys, minlength=small_trace.record_sizes.size
        )
        cold = np.setdiff1d(
            np.arange(small_trace.record_sizes.size), keys
        )
        assert counts[keys].min() >= np.percentile(counts[cold], 50)


    @given(
        n_keys=st.integers(1, 60),
        n=st.integers(0, 400),
        tied=st.booleans(),
        fractions=st.lists(
            st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
            min_size=1, max_size=6,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_byte_equal_to_the_per_cell_ranking(
        self, n_keys, n, tied, fractions, seed,
    ):
        def per_cell(trace, fraction):
            # split_fast_keys before the ranking moved onto the trace
            counts = np.bincount(trace.keys, minlength=trace.record_sizes.size)
            order = np.argsort(-counts, kind="stable")
            budget = fraction * float(trace.record_sizes.sum())
            within = np.cumsum(trace.record_sizes[order]) <= budget
            return order[within]

        rng = np.random.default_rng(seed)
        # few distinct keys requested -> many tied counts
        keys = rng.integers(0, max(1, n_keys // 8) if tied else n_keys, n)
        trace = Trace(
            name="t", keys=keys, is_read=rng.random(n) < 0.7,
            record_sizes=rng.choice([1, 64, 64, 5000], n_keys),
        )
        for fraction in fractions:
            got = split_fast_keys(trace, fraction)
            expect = per_cell(trace, fraction)
            assert got.dtype == expect.dtype
            assert got.tobytes() == expect.tobytes()


class TestExperimentRunner:
    @pytest.fixture
    def specs(self, small_spec, mixed_spec):
        return ExperimentRunner.grid(
            [small_spec, mixed_spec],
            engines=("redis", "memcached"),
            placements=("fast", "slow", "split"),
            fast_fractions=(0.25,),
        )

    def test_grid_shape(self, specs):
        assert len(specs) == 2 * 2 * 3

    def test_serial_cold_warm_parallel_bit_identical(
        self, tmp_path, specs,
    ):
        config = ClientConfig(repeats=2, seed=11)
        base = ExperimentRunner(cache=None, client=config).run_grid(specs)
        cold = ExperimentRunner(
            cache=tmp_path / "c", client=config
        ).run_grid(specs)
        warm = ExperimentRunner(
            cache=tmp_path / "c", client=config
        ).run_grid(specs)
        parallel = ExperimentRunner(cache=None, client=config).run_grid(
            specs, workers=2
        )
        assert base == cold == warm == parallel

    def test_warm_run_skips_measurement(self, tmp_path, specs, monkeypatch):
        config = ClientConfig(repeats=2, seed=11)
        ExperimentRunner(cache=tmp_path / "c", client=config).run_grid(specs)
        warm_runner = ExperimentRunner(cache=tmp_path / "c", client=config)

        def boom(*a, **k):  # pragma: no cover - must not run
            raise AssertionError("warm run built a batch kernel")

        monkeypatch.setattr(BatchKernel, "__init__", boom)
        assert len(warm_runner.run_grid(specs)) == len(specs)

    def test_sweep_leaves_no_trace_row(self, tmp_path, specs):
        runner = ExperimentRunner(
            cache=tmp_path / "c", client=ClientConfig(repeats=2, seed=11),
        )
        runner.run_grid(specs)
        stats = runner.cache.stats()
        assert stats.entries["traces"] == 0
        assert stats.entries["results"] == len(specs)
        t1 = runner.trace_for(specs[0].workload)
        assert runner.trace_for(specs[0].workload) is t1  # the runner's memo

    def test_baselines_match_sensitivity_engine(self, small_spec):
        runner = ExperimentRunner(
            cache=None, client=ClientConfig(repeats=2, seed=4)
        )
        got = runner.baselines(small_spec, engine="redis")
        assert isinstance(got, PerformanceBaselines)
        engine = SensitivityEngine(
            RedisLike, client=YCSBClient(repeats=2, seed=4)
        )
        trace = runner.trace_for(small_spec)
        want = engine.measure(WorkloadDescriptor.from_trace(trace))
        assert got.fast == want.fast
        assert got.slow == want.slow


class TestSensitivityEngineCache:
    def test_cache_param_wraps_client(self, tmp_path, small_trace):
        engine = SensitivityEngine(
            RedisLike,
            client=YCSBClient(repeats=2, seed=4),
            cache=tmp_path / "c",
        )
        assert isinstance(engine.client, CachingClient)
        descriptor = WorkloadDescriptor.from_trace(small_trace)
        first = engine.measure(descriptor)
        assert engine.client.cache_misses == 2
        second = engine.measure(descriptor)
        assert engine.client.cache_hits == 2
        assert first == second
