"""Tests for the Sensitivity Engine."""

import pytest

from repro.core import SensitivityEngine, WorkloadDescriptor
from repro.core.sensitivity import ESTIMATED_PENALTY, estimate_counterpart
from repro.errors import FaultError
from repro.kvstore import MemcachedLike, RedisLike
from repro.ycsb import YCSBClient


@pytest.fixture
def baselines(small_trace, quiet_client):
    engine = SensitivityEngine(RedisLike, client=quiet_client)
    return engine.measure(WorkloadDescriptor.from_trace(small_trace))


class TestBaselines:
    def test_fast_beats_slow(self, baselines):
        assert baselines.fast_runtime_ns < baselines.slow_runtime_ns
        assert baselines.throughput_gap > 1.0

    def test_redis_gap_near_paper(self, baselines):
        """Fig 5a: FastMem-only ~40 % over SlowMem-only for thumbnails."""
        assert baselines.throughput_gap == pytest.approx(1.40, abs=0.06)

    def test_read_delta_positive(self, baselines):
        assert baselines.read_delta_ns > 0

    def test_write_delta_zero_for_readonly(self, baselines):
        assert baselines.write_delta_ns == 0.0

    def test_runtime_decomposition(self, baselines):
        slow = baselines.slow
        total = (slow.n_reads * slow.avg_read_ns
                 + slow.n_writes * slow.avg_write_ns)
        assert total == pytest.approx(slow.runtime_ns, rel=1e-9)

    def test_mixed_workload_write_delta(self, mixed_trace, quiet_client):
        engine = SensitivityEngine(RedisLike, client=quiet_client)
        b = engine.measure(WorkloadDescriptor.from_trace(mixed_trace))
        assert b.write_delta_ns > 0
        assert b.write_delta_ns < b.read_delta_ns  # writes less exposed


class TestEngineVariation:
    def test_memcached_smaller_gap(self, small_trace, quiet_client):
        descriptor = WorkloadDescriptor.from_trace(small_trace)
        redis = SensitivityEngine(RedisLike, client=quiet_client)
        memc = SensitivityEngine(MemcachedLike, client=quiet_client)
        assert (memc.measure(descriptor).throughput_gap
                < redis.measure(descriptor).throughput_gap)

    def test_default_client_created(self):
        engine = SensitivityEngine(RedisLike)
        assert isinstance(engine.client, YCSBClient)


class TestAllowPartial:
    """One side failing degrades to an estimate; both failing raises."""

    @staticmethod
    def _fail_sides(monkeypatch, *sides):
        """Make measuring the named extreme(s) raise a FaultError."""
        from repro.memsim.kernel import BatchKernel

        run = BatchKernel.run

        def faulty_run(kernel, fast_mask, fingerprint=None):
            side = "fast" if fast_mask.all() else "slow"
            if side in sides:
                raise FaultError(f"{side} node offline")
            return run(kernel, fast_mask, fingerprint)

        monkeypatch.setattr(BatchKernel, "run", faulty_run)

    @pytest.mark.parametrize("lost, kept", [("fast", "slow"), ("slow", "fast")])
    def test_one_side_failing_is_estimated_and_flagged(
        self, small_trace, quiet_client, monkeypatch, lost, kept,
    ):
        engine = SensitivityEngine(RedisLike, client=quiet_client)
        descriptor = WorkloadDescriptor.from_trace(small_trace)
        clean = engine.measure(descriptor)
        self._fail_sides(monkeypatch, lost)
        with pytest.raises(FaultError, match=f"{lost} node offline"):
            engine.measure(descriptor)
        partial = engine.measure(descriptor, allow_partial=True)
        assert partial.flags == (f"{lost}:estimated",)
        assert partial.confidence == ESTIMATED_PENALTY
        assert getattr(partial, kept) == getattr(clean, kept)
        system = engine.system_factory()
        assert getattr(partial, lost) == estimate_counterpart(
            getattr(clean, kept),
            RedisLike(system.fast, system.slow).profile, system, target=lost,
        )

    def test_both_sides_failing_raises(
        self, small_trace, quiet_client, monkeypatch,
    ):
        engine = SensitivityEngine(RedisLike, client=quiet_client)
        self._fail_sides(monkeypatch, "fast", "slow")
        with pytest.raises(FaultError, match="both extreme baselines failed"):
            engine.measure(
                WorkloadDescriptor.from_trace(small_trace), allow_partial=True,
            )

    def test_clean_partial_run_equals_strict_run(self, mixed_trace):
        from repro.faults import FaultSpec, LatencySpikes

        descriptor = WorkloadDescriptor.from_trace(mixed_trace)
        for faults, flags in (
            (None, ()),
            (FaultSpec(latency_spikes=LatencySpikes()),
             ("fast:faulty", "slow:faulty")),
        ):
            engine = SensitivityEngine(
                RedisLike, client=YCSBClient(repeats=2, seed=5, faults=faults),
            )
            strict = engine.measure(descriptor)
            assert engine.measure(descriptor, allow_partial=True) == strict
            assert strict.flags == flags
