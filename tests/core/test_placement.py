"""Tests for the Placement Engine."""

from dataclasses import replace

import pytest

from repro.core import Mnemo, PlacementEngine
from repro.errors import PlacementError
from repro.kvstore import RedisLike
from repro.memsim import HybridMemorySystem
from repro.ycsb import generate_trace, workload_by_name


@pytest.fixture
def report(small_trace, quiet_client):
    return Mnemo(engine_factory=RedisLike, client=quiet_client).profile(
        small_trace
    )


class TestPlace:
    def test_prefix_lands_on_fast(self, report, small_trace):
        engine = PlacementEngine(RedisLike)
        dep = engine.place(
            small_trace.record_sizes, report.pattern.order, 10,
            HybridMemorySystem.testbed(),
        )
        for key in report.pattern.order[:10]:
            assert dep.fast_mask[key]
        assert dep.fast_mask.sum() == 10

    def test_zero_prefix_all_slow(self, report, small_trace):
        engine = PlacementEngine(RedisLike)
        dep = engine.place(
            small_trace.record_sizes, report.pattern.order, 0,
            HybridMemorySystem.testbed(),
        )
        assert not dep.fast_mask.any()

    def test_full_prefix_all_fast(self, report, small_trace):
        engine = PlacementEngine(RedisLike)
        dep = engine.place(
            small_trace.record_sizes, report.pattern.order,
            small_trace.n_keys, HybridMemorySystem.testbed(),
        )
        assert dep.fast_mask.all()

    def test_prefix_out_of_range(self, report, small_trace):
        engine = PlacementEngine(RedisLike)
        with pytest.raises(PlacementError):
            engine.place(small_trace.record_sizes, report.pattern.order,
                         small_trace.n_keys + 1, HybridMemorySystem.testbed())

    def test_partial_order_rejected(self, report, small_trace):
        engine = PlacementEngine(RedisLike)
        with pytest.raises(PlacementError):
            engine.place(small_trace.record_sizes,
                         report.pattern.order[:5], 2,
                         HybridMemorySystem.testbed())

    def test_oversized_prefix_rejected(self, report, small_trace):
        engine = PlacementEngine(RedisLike)
        tiny = HybridMemorySystem.testbed(fast_capacity_bytes=1_000)
        with pytest.raises(PlacementError):
            engine.place(small_trace.record_sizes, report.pattern.order,
                         50, tiny)


class TestRealize:
    def test_realize_matches_choice(self, report, small_trace):
        choice = report.choose(0.10)
        engine = PlacementEngine(RedisLike)
        dep = engine.realize(report.curve, choice, small_trace.record_sizes,
                             HybridMemorySystem.testbed())
        assert dep.fast_mask.sum() == choice.n_fast_keys
        assert dep.fast_bytes() == pytest.approx(choice.fast_bytes)

    def test_workload_mismatch_rejected(self, report, small_trace):
        choice = replace(report.choose(0.10), workload="other")
        engine = PlacementEngine(RedisLike)
        with pytest.raises(PlacementError):
            engine.realize(report.curve, choice, small_trace.record_sizes,
                           HybridMemorySystem.testbed())

    def test_mnemo_place_facade(self, report, small_trace, quiet_client):
        mnemo = Mnemo(engine_factory=RedisLike, client=quiet_client)
        choice = report.choose(0.10)
        dep = mnemo.place(report, choice)
        assert dep.fast_mask.sum() == choice.n_fast_keys


class TestRepeatedPlace:
    def test_one_system_hosts_any_number_of_placements(self, quiet_client):
        # trending's ~0.95 GiB dataset: ten placements on one 2 x 4 GiB
        # testbed fit only if a dropped deployment holds no capacity
        spec = replace(workload_by_name("trending"), n_requests=2_000)
        trace = generate_trace(spec)
        mnemo = Mnemo(engine_factory=RedisLike, client=quiet_client)
        report = mnemo.profile(trace)
        choice = report.choose(0.10)
        system = HybridMemorySystem.testbed()
        for _ in range(10):
            dep = mnemo.place(report, choice, system)
            assert dep.fast_mask.sum() == choice.n_fast_keys
        fresh = HybridMemorySystem.testbed()
        assert (system.fast, system.slow) == (fresh.fast, fresh.slow)
