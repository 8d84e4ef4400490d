"""Fault-injection determinism: schedules and measurements are pure
functions of (experiment fingerprint, fault spec).

The load-bearing guarantee of :mod:`repro.faults`: injecting faults
must not cost reproducibility or cacheability.  Serial, parallel and
warm-cache executions of the same faulty experiment are bit-identical.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.faults import (
    BandwidthDegradation,
    FaultSpec,
    JitterBursts,
    LatencySpikes,
    NodeOffline,
    parse_faults,
)
from repro.kvstore import RedisLike
from repro.kvstore.server import HybridDeployment
from repro.memsim import HybridMemorySystem
from repro.runner import ClientConfig, ExperimentRunner, ExperimentSpec
from repro.ycsb import YCSBClient


def _timeline_arrays(tl):
    return [
        a for a in (tl.slow_latency_mult, tl.slow_bandwidth_mult,
                    tl.stall_ns, tl.noise_scale)
        if a is not None
    ]


@st.composite
def fault_specs(draw):
    """Random (but valid) fault specs with at least one model active."""
    spec = FaultSpec(
        latency_spikes=draw(st.one_of(st.none(), st.builds(
            LatencySpikes,
            rate=st.floats(0.001, 0.2),
            magnitude=st.floats(1.0, 10.0),
            width=st.integers(1, 256),
        ))),
        bandwidth_degradation=draw(st.one_of(st.none(), st.builds(
            BandwidthDegradation,
            onset=st.floats(0.0, 0.9),
            floor=st.floats(0.1, 1.0),
        ))),
        node_offline=draw(st.one_of(st.none(), st.builds(
            NodeOffline,
            node=st.sampled_from(["fast", "slow"]),
            windows=st.integers(0, 4),
            width=st.integers(1, 512),
            stall_ns=st.floats(0.0, 100_000.0),
        ))),
        jitter_bursts=draw(st.one_of(st.none(), st.builds(
            JitterBursts,
            bursts=st.integers(0, 4),
            width=st.integers(1, 512),
            sigma_scale=st.floats(1.0, 10.0),
        ))),
    )
    if not spec.active:
        spec = FaultSpec(latency_spikes=LatencySpikes())
    return spec


class TestScheduleDeterminism:
    @settings(max_examples=25, deadline=None)
    @given(spec=fault_specs(),
           label=st.text(min_size=1, max_size=40),
           n=st.integers(1, 3_000))
    def test_timeline_is_pure_function_of_label_and_spec(
        self, spec, label, n,
    ):
        a, b = spec.timeline(n, label), spec.timeline(n, label)
        for x, y in zip(_timeline_arrays(a), _timeline_arrays(b)):
            assert np.array_equal(x, y)

    def test_distinct_labels_get_distinct_schedules(self):
        spec = FaultSpec(latency_spikes=LatencySpikes(rate=0.05))
        a = spec.timeline(10_000, "experiment-a").slow_latency_mult
        b = spec.timeline(10_000, "experiment-b").slow_latency_mult
        assert not np.array_equal(a, b)

    def test_timeline_shared_across_repeats(self, small_trace):
        """Repeats re-roll measurement noise, never device behaviour:
        the timeline depends only on the fingerprint, which covers the
        repeat count but not a per-repeat index."""
        spec = parse_faults("spikes,offline")
        a = spec.timeline(small_trace.keys.size, "fp")
        b = spec.timeline(small_trace.keys.size, "fp")
        assert np.array_equal(a.slow_latency_mult, b.slow_latency_mult)
        assert np.array_equal(a.stall_ns, b.stall_ns)


class TestMeasurementDeterminism:
    @pytest.fixture
    def slow_deployment(self, small_trace):
        return HybridDeployment.all_slow(
            RedisLike, HybridMemorySystem.testbed(), small_trace.record_sizes
        )

    def test_faulty_run_is_repeatable(self, small_trace, slow_deployment):
        faults = parse_faults("spikes(rate=0.05),ramp,jitter")
        r1 = YCSBClient(repeats=2, seed=11, faults=faults).execute(
            small_trace, slow_deployment
        )
        r2 = YCSBClient(repeats=2, seed=11, faults=faults).execute(
            small_trace, slow_deployment
        )
        assert r1 == r2

    def test_faults_change_the_numbers(self, small_trace, slow_deployment):
        clean = YCSBClient(repeats=2, seed=11).execute(
            small_trace, slow_deployment
        )
        faulty = YCSBClient(
            repeats=2, seed=11,
            faults=parse_faults("spikes(rate=0.1,magnitude=8)"),
        ).execute(small_trace, slow_deployment)
        assert faulty != clean
        assert faulty.runtime_ns > clean.runtime_ns

    def test_fault_spec_changes_fingerprint(
        self, small_trace, slow_deployment,
    ):
        clean = YCSBClient(repeats=2, seed=11)
        faulty = YCSBClient(repeats=2, seed=11, faults=parse_faults("spikes"))
        _, fp_clean = clean.experiment_fingerprint(
            small_trace, slow_deployment
        )
        _, fp_faulty = faulty.experiment_fingerprint(
            small_trace, slow_deployment
        )
        assert fp_clean != fp_faulty

    def test_inactive_spec_preserves_clean_fingerprint(
        self, small_trace, slow_deployment,
    ):
        """FaultSpec() (nothing active) must not perturb fingerprints,
        so pre-fault cache entries stay valid."""
        clean = YCSBClient(repeats=2, seed=11)
        noop = YCSBClient(repeats=2, seed=11, faults=FaultSpec())
        _, fp_clean = clean.experiment_fingerprint(
            small_trace, slow_deployment
        )
        _, fp_noop = noop.experiment_fingerprint(small_trace, slow_deployment)
        assert fp_clean == fp_noop
        assert noop.execute(small_trace, slow_deployment) == clean.execute(
            small_trace, slow_deployment
        )


class TestGridDeterminism:
    def test_serial_parallel_cached_identical(self, tmp_path, small_spec):
        faults = parse_faults("spikes(rate=0.05),ramp(floor=0.6),jitter")
        specs = ExperimentRunner.grid(
            [small_spec], engines=("redis", "memcached"),
            placements=("fast", "slow"),
        )
        config = ClientConfig(repeats=2, seed=11, faults=faults)

        serial = ExperimentRunner(client=config).run_grid(specs)
        cold = ExperimentRunner(
            cache=tmp_path / "cache", client=config,
        ).run_grid(specs)
        warm = ExperimentRunner(
            cache=tmp_path / "cache", client=config,
        ).run_grid(specs)

        assert serial == cold == warm
