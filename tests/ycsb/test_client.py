"""Tests for the YCSB client."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, WorkloadError
from repro.kvstore import HybridDeployment, MemcachedLike, RedisLike
from repro.memsim import HybridMemorySystem
from repro.ycsb import YCSBClient
from repro.ycsb.workload import Trace


def deploy(sizes, fast_keys=(), factory=RedisLike):
    return HybridDeployment(
        factory, HybridMemorySystem.testbed(),
        np.asarray(sizes, dtype=np.int64), fast_keys=fast_keys,
    )


def trace_of(keys, is_read, sizes, name="t"):
    return Trace(
        name=name,
        keys=np.asarray(keys, dtype=np.int64),
        is_read=np.asarray(is_read, dtype=bool),
        record_sizes=np.asarray(sizes, dtype=np.int64),
    )


class TestConstruction:
    def test_invalid_repeats(self):
        with pytest.raises(ConfigurationError):
            YCSBClient(repeats=0)

    @pytest.mark.parametrize("bad", [-0.5, 100.5, float("nan"), float("inf")])
    def test_percentile_outside_0_100_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="percentiles"):
            YCSBClient(percentiles=(50.0, bad))

    def test_percentile_bounds_accepted(self):
        assert YCSBClient(percentiles=[0, 100]).percentiles == (0, 100)

    def test_key_space_mismatch_rejected(self, quiet_client):
        t = trace_of([0], [True], [100, 200])
        with pytest.raises(WorkloadError):
            quiet_client.execute(t, deploy([100]))


class TestNoiselessTiming:
    def test_runtime_matches_hand_formula(self, quiet_client):
        t = trace_of([0, 0], [True, True], [10_000])
        dep = deploy([10_000], fast_keys=[0])
        result = quiet_client.execute(t, dep)
        prof = dep.profile
        per_req = prof.read_cpu_ns + prof.read_passes * (
            65.7 + (10_000 + prof.metadata_bytes) / 14.9
        )
        assert result.runtime_ns == pytest.approx(2 * per_req, rel=1e-9)

    def test_slow_placement_slower(self, quiet_client):
        t = trace_of([0] * 100, [True] * 100, [100_000])
        fast = quiet_client.execute(t, deploy([100_000], fast_keys=[0]))
        slow = quiet_client.execute(t, deploy([100_000]))
        assert slow.runtime_ns > fast.runtime_ns
        assert fast.throughput_ops_s > slow.throughput_ops_s

    def test_read_write_split(self, quiet_client):
        t = trace_of([0, 0, 0, 0], [True, True, False, False], [10_000])
        result = quiet_client.execute(t, deploy([10_000]))
        assert result.n_reads == 2 and result.n_writes == 2
        assert result.avg_read_ns > 0 and result.avg_write_ns > 0
        total = 2 * result.avg_read_ns + 2 * result.avg_write_ns
        assert total == pytest.approx(result.runtime_ns, rel=1e-9)

    def test_writes_cheaper_than_reads_on_slow(self, quiet_client):
        """Section III: writes are less exposed to SlowMem latency."""
        t = trace_of([0, 0], [True, False], [100_000])
        result = quiet_client.execute(t, deploy([100_000]))
        prof = deploy([100_000]).profile
        read_mem = result.avg_read_ns - prof.read_cpu_ns
        write_mem = result.avg_write_ns - prof.write_cpu_ns
        assert write_mem < read_mem


class TestStatistics:
    def test_throughput_definition(self, quiet_client):
        t = trace_of([0] * 10, [True] * 10, [1_000])
        r = quiet_client.execute(t, deploy([1_000]))
        assert r.throughput_ops_s == pytest.approx(
            10 / (r.runtime_ns / 1e9)
        )

    def test_avg_latency_definition(self, quiet_client):
        t = trace_of([0] * 10, [True] * 10, [1_000])
        r = quiet_client.execute(t, deploy([1_000]))
        assert r.avg_latency_ns == pytest.approx(r.runtime_ns / 10)

    def test_percentiles_recorded(self):
        client = YCSBClient(repeats=2, noise_sigma=0.05, seed=1)
        t = trace_of([0] * 500, [True] * 500, [1_000])
        r = client.execute(t, deploy([1_000]))
        assert r.percentile(50.0) <= r.percentile(95.0) <= r.percentile(99.0)

    def test_unrecorded_percentile_raises(self, quiet_client):
        t = trace_of([0], [True], [1_000])
        r = quiet_client.execute(t, deploy([1_000]))
        with pytest.raises(ConfigurationError):
            r.percentile(99.9)

    def test_repeats_reduce_runtime_std(self):
        t = trace_of([0] * 200, [True] * 200, [1_000])
        multi = YCSBClient(repeats=5, noise_sigma=0.05, seed=3)
        r = multi.execute(t, deploy([1_000]))
        assert r.repeats == 5
        assert r.runtime_std_ns > 0


class TestDeterminism:
    def test_same_seed_same_result(self):
        t = trace_of([0] * 100, [True] * 100, [1_000])
        a = YCSBClient(repeats=2, seed=9).execute(t, deploy([1_000]))
        b = YCSBClient(repeats=2, seed=9).execute(t, deploy([1_000]))
        assert a.runtime_ns == b.runtime_ns

    def test_different_seed_differs(self):
        t = trace_of([0] * 100, [True] * 100, [1_000])
        a = YCSBClient(repeats=1, seed=9).execute(t, deploy([1_000]))
        b = YCSBClient(repeats=1, seed=10).execute(t, deploy([1_000]))
        assert a.runtime_ns != b.runtime_ns


class TestLLCPath:
    def test_llc_speeds_up_hot_trace(self):
        t = trace_of([0] * 1_000, [True] * 1_000, [100_000])
        base = YCSBClient(repeats=1, noise_sigma=0.0)
        with_llc = YCSBClient(repeats=1, noise_sigma=0.0, use_llc=True)
        slow_dep = deploy([100_000])
        r_nollc = base.execute(t, slow_dep)
        r_llc = with_llc.execute(t, deploy([100_000]))
        assert r_llc.runtime_ns < r_nollc.runtime_ns

    def test_llc_neutral_for_streaming_trace(self):
        # every key touched once, dataset >> LLC: no hits after compulsory
        n = 500
        t = trace_of(list(range(n)), [True] * n, [100_000] * n)
        base = YCSBClient(repeats=1, noise_sigma=0.0)
        with_llc = YCSBClient(repeats=1, noise_sigma=0.0, use_llc=True)
        r0 = base.execute(t, deploy([100_000] * n))
        r1 = with_llc.execute(t, deploy([100_000] * n))
        assert r1.runtime_ns == pytest.approx(r0.runtime_ns, rel=1e-6)


class TestEngineComparison:
    def test_memcached_less_sensitive_than_redis(self, quiet_client):
        """Fig 8b ordering on a minimal workload."""
        t = trace_of([0] * 100, [True] * 100, [100_000])
        gaps = {}
        for factory in (RedisLike, MemcachedLike):
            fast = quiet_client.execute(t, deploy([100_000], [0], factory))
            slow = quiet_client.execute(t, deploy([100_000], (), factory))
            gaps[factory] = fast.throughput_ops_s / slow.throughput_ops_s
        assert gaps[RedisLike] > gaps[MemcachedLike]
