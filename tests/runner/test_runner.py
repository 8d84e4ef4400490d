"""Tests for the client's result store and the experiment runner."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.sensitivity import PerformanceBaselines, SensitivityEngine
from repro.errors import ConfigurationError
from repro.faults import FaultSpec, LatencySpikes
from repro.kvstore import RedisLike
from repro.memsim import HybridMemorySystem
from repro.memsim.kernel import BatchKernel
from repro.runner import (
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


#: Client settings under which a store must change no number.
STORE_SETTINGS = {
    "defaults": {},
    "llc": {"use_llc": True},
    "concurrency": {"concurrency": 2, "contention": 0.3},
    "noiseless": {"noise_sigma": 0.0},
    "percentiles": {"percentiles": (50.0, 99.9)},
    "faults": {"faults": FaultSpec(latency_spikes=LatencySpikes())},
}


class TestCachingClient:
    def test_hit_returns_identical_result(
        self, cache, small_trace, slow_deployment,
    ):
        client = YCSBClient(cache=cache, repeats=2, seed=5)
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
        caching = YCSBClient(cache=cache, repeats=2, seed=5)
        assert caching.execute(small_trace, slow_deployment) == plain
        # and the recalled copy is bit-identical too
        fresh = YCSBClient(cache=cache, repeats=2, seed=5)
        assert fresh.execute(small_trace, slow_deployment) == plain

    def test_different_seeds_do_not_alias(
        self, cache, small_trace, slow_deployment,
    ):
        a = YCSBClient(cache=cache, seed=1).execute(
            small_trace, slow_deployment
        )
        b = YCSBClient(cache=cache, seed=2).execute(
            small_trace, slow_deployment
        )
        assert a != b

    def test_generator_seed_bypasses_cache(
        self, cache, small_trace, slow_deployment,
    ):
        client = YCSBClient(
            cache=cache, seed=np.random.default_rng(0), repeats=1
        )
        client.execute(small_trace, slow_deployment)
        assert client.cache_hits == client.cache_misses == 0
        assert cache.stats().entries["results"] == 0

    def test_llc_hitmask_persisted_and_reused(
        self, cache, small_trace, slow_deployment,
    ):
        client = YCSBClient(cache=cache, use_llc=True, seed=5, repeats=1)
        first = client.execute(small_trace, slow_deployment)
        assert cache.stats().entries["hitmasks"] == 1
        # a fresh client in a fresh process loads the mask from disk
        other = YCSBClient(cache=cache, use_llc=True, seed=5, repeats=1)
        assert other.execute(small_trace, slow_deployment) == first

    @pytest.mark.parametrize("client_settings", STORE_SETTINGS.values(),
                             ids=list(STORE_SETTINGS))
    def test_the_store_changes_no_number(
        self, cache, monkeypatch, client_settings, small_spec, small_trace,
        slow_deployment,
    ):
        writes = []
        put_hitmask = cache.put_hitmask
        monkeypatch.setattr(
            cache, "put_hitmask",
            lambda fp, hits: writes.append(fp) or put_hitmask(fp, hits),
        )
        kwargs = dict(repeats=2, seed=5, **client_settings)
        profile, system = slow_deployment.profile, slow_deployment.system
        n = small_trace.n_keys
        masks = [np.ones(n, bool), np.zeros(n, bool), np.arange(n) % 3 == 0]

        def measure(client):
            return (
                client.execute(small_trace, slow_deployment),
                client.execute_placements(small_trace, masks, profile, system),
            )

        want = measure(YCSBClient(**kwargs))
        stored = YCSBClient(**kwargs, cache=cache)
        assert measure(stored) == want  # cold
        assert (stored.cache_hits, stored.cache_misses) == (1, 3)
        assert measure(stored) == want  # warm
        assert (stored.cache_hits, stored.cache_misses) == (5, 3)
        fresh = YCSBClient(**kwargs, cache=cache)
        assert measure(fresh) == want
        assert fresh.cache_misses == 0

        spec = ExperimentSpec(
            workload=small_spec, placement="split", fast_fraction=0.25,
        )
        config = ClientConfig(**kwargs)
        want_run = ExperimentRunner(client=config).run(spec)
        runner = ExperimentRunner(cache=cache, client=config)
        assert runner.run(spec) == want_run  # cold
        assert runner.run(spec) == want_run  # warm
        fresh_runner = ExperimentRunner(cache=cache, client=config)
        assert fresh_runner.run(spec) == want_run
        assert len(writes) == (1 if kwargs.get("use_llc") else 0)


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
        one_by_one = ExperimentRunner(cache=None, client=config)
        singles = [one_by_one.run(spec) for spec in specs]
        assert base == cold == warm == singles

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
        want = engine.measure(trace)
        assert got.fast == want.fast
        assert got.slow == want.slow


class TestOnePassPerGroup:
    """A sweep measures each (workload, engine) group of 12 hot-order
    splits in one kernel pass, from one store read and into one commit;
    a struck spec leaves its batch-mates measured in that same pass."""

    SPLITS = tuple(np.linspace(0.05, 0.9, 12).round(4))

    @pytest.fixture
    def specs(self, small_spec, mixed_spec):
        return ExperimentRunner.grid(
            [small_spec, mixed_spec], engines=("redis", "memcached"),
            placements=("split",), fast_fractions=self.SPLITS,
        )

    @pytest.fixture
    def passes(self, monkeypatch):
        """How many placements each ``run_all`` call measured."""
        calls = []
        run_all = BatchKernel.run_all

        def counted(kernel, placements, fingerprints=None):
            placements = list(placements)
            calls.append(len(placements))
            return run_all(kernel, placements, fingerprints)

        monkeypatch.setattr(BatchKernel, "run_all", counted)
        return calls

    @staticmethod
    def one_by_one(specs):
        runner = ExperimentRunner(
            cache=None, client=ClientConfig(repeats=2, seed=11),
        )
        return [runner.run(spec) for spec in specs]

    def test_a_group_is_one_pass_one_read_one_commit(
        self, tmp_path, specs, passes, monkeypatch,
    ):
        from repro import telemetry
        from repro.store.db import Database

        runner = ExperimentRunner(
            cache=tmp_path / "s.db", client=ClientConfig(repeats=2, seed=11),
        )
        io = {"read": 0, "write_txn": 0}
        for name in io:
            real = getattr(Database, name)

            def counted(db, *args, _real=real, _name=name, **kwargs):
                io[_name] += 1
                return _real(db, *args, **kwargs)

            monkeypatch.setattr(Database, name, counted)
        with telemetry.session() as tel:
            outcome = runner.sweep(specs)
        assert outcome.ok
        assert passes == [12] * 4
        assert io == {"read": 4, "write_txn": 4}
        assert set(outcome.provenance) == {"computed"}
        # each spec's span gets its provenance once its group is measured
        spans = [r for r in tel.tracer.records if r.name == "runner.experiment"]
        assert sorted(r.attrs["label"] for r in spans) == sorted(
            spec.label for spec in specs)
        assert {r.attrs["provenance"] for r in spans} == {"computed"}
        monkeypatch.undo()
        assert list(outcome.results) == self.one_by_one(specs)

    def test_a_strike_leaves_its_batch_mates_in_the_pass(
        self, tmp_path, specs, passes,
    ):
        from repro.faults import ChaosPlan

        struck = specs[3]
        runner = ExperimentRunner(
            cache=None, client=ClientConfig(repeats=2, seed=11),
            chaos=ChaosPlan(kill_labels=(struck.label,),
                            marker_dir=str(tmp_path / "chaos")),
        )
        outcome = runner.sweep(specs)
        assert outcome.ok
        # the struck group's 11 others in its first pass, then itself
        assert passes == [11, 12, 12, 12, 1]
        assert list(outcome.results) == self.one_by_one(specs)
        metas = {meta.label: meta for meta in outcome.metas}
        assert all(meta.duration_s > 0.0 for meta in metas.values())


class TestSensitivityEngineCache:
    def test_cache_param_wraps_client(self, tmp_path, small_trace):
        engine = SensitivityEngine(
            RedisLike, client=YCSBClient(repeats=2, seed=4, cache=tmp_path / "c"),
        )
        first = engine.measure(small_trace)
        assert engine.client.cache_misses == 2
        second = engine.measure(small_trace)
        assert engine.client.cache_hits == 2
        assert first == second
