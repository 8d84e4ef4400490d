"""Tests for the X-Mem-style instrumented profiler."""

import numpy as np
import pytest

from repro.baselines import InstrumentedProfiler
from repro.core import Mnemo, MnemoT
from repro.errors import ConfigurationError
from repro.kvstore import RedisLike


@pytest.fixture
def profiler(quiet_client):
    return InstrumentedProfiler(RedisLike, client=quiet_client)


class TestMicrobenchmarks:
    def test_recovers_device_parameters(self, profiler):
        micro = profiler.run_microbenchmarks()
        assert micro.fast_latency_ns == pytest.approx(65.7)
        assert micro.slow_latency_ns == pytest.approx(238.1)
        assert micro.fast_bytes_per_ns == pytest.approx(14.9)

    def test_microbench_takes_time(self, profiler):
        micro = profiler.run_microbenchmarks()
        assert micro.microbench_ns > 0

    def test_device_time_lookup(self, profiler):
        micro = profiler.run_microbenchmarks()
        assert micro.device_time_ns("fast", 0) == pytest.approx(65.7)
        assert micro.device_time_ns("slow", 1810) == pytest.approx(238.1 + 1000)
        with pytest.raises(ConfigurationError):
            micro.device_time_ns("gpu", 0)


class TestProfilingCost:
    def test_overhead_dominates(self, profiler, small_trace, quiet_client):
        """Table IV: instrumentation costs ~40x one workload execution."""
        result = profiler.profile(small_trace)
        plain = Mnemo(engine_factory=RedisLike,
                      client=quiet_client).profile(small_trace)
        one_run = plain.baselines.fast.runtime_ns
        assert result.cost.tiering_ns == pytest.approx(40 * one_run, rel=0.01)

    def test_requires_source_instrumentation(self, profiler, small_trace):
        assert profiler.profile(small_trace).cost.requires_source_instrumentation

    def test_total_is_sum(self, profiler, small_trace):
        cost = profiler.profile(small_trace).cost
        assert cost.total_ns == pytest.approx(
            cost.input_prep_ns + cost.baselines_ns + cost.tiering_ns
        )

    def test_overhead_configurable(self, small_trace, quiet_client):
        cheap = InstrumentedProfiler(
            RedisLike, client=quiet_client, instrumentation_overhead=10.0
        )
        pricey = InstrumentedProfiler(
            RedisLike, client=quiet_client, instrumentation_overhead=40.0
        )
        assert (cheap.profile(small_trace).cost.tiering_ns
                < pricey.profile(small_trace).cost.tiering_ns)

    def test_invalid_overhead(self):
        with pytest.raises(ConfigurationError):
            InstrumentedProfiler(RedisLike, instrumentation_overhead=0.5)


class TestOrderingQuality:
    def test_matches_mnemot_ordering(self, profiler, small_trace,
                                     quiet_client):
        """The expensive instrumented run recovers exactly the ordering
        MnemoT computes for free from the trace (Table IV's point)."""
        result = profiler.profile(small_trace)
        tiered = MnemoT(engine_factory=RedisLike,
                        client=quiet_client).profile(small_trace)
        assert np.array_equal(result.pattern.order, tiered.pattern.order)


class TestDevicePrediction:
    def test_misses_cpu_component(self, profiler, small_trace, quiet_client):
        """Microbenchmark baselines see only device time, so they badly
        underpredict end-to-end runtime (why Mnemo measures instead)."""
        micro = profiler.run_microbenchmarks()
        predicted = profiler.predict_runtime_ns(small_trace, micro, "fast")
        real = Mnemo(engine_factory=RedisLike, client=quiet_client).profile(
            small_trace
        ).baselines.fast.runtime_ns
        assert predicted < 0.25 * real
