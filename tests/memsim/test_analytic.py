"""Tests for the analytic path: the kernel with the reuse-time hit mask.

The analytic path trades exactness for closed form: its contract is a
*tolerance*, not bit-identity.  The tolerance tests here hold the
envelope — predicted runtime within 5% of the simulator on the YCSB
presets, with and without the LLC — on downsized traces so the suite
stays fast.  ``tests/core/test_formula_oracles.py`` holds where the two
paths must agree bit for bit.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.core.mnemo import Mnemo
from repro.errors import ConfigurationError, WorkloadError
from repro.faults import parse_faults
from repro.kvstore.redislike import RedisLike
from repro.memsim.analytic import (
    predict_baselines,
    reuse_time_eviction_age,
    reuse_time_hit_mask,
)
from repro.memsim.cache import LLCModel
from repro.memsim.kernel import BatchKernel
from repro.memsim.system import HybridMemorySystem
from repro.ycsb.client import YCSBClient
from repro.ycsb.generator import generate_trace
from repro.ycsb.presets import TABLE_III_WORKLOADS, workload_by_name

PRESETS = [w.name for w in TABLE_III_WORKLOADS]


def small_trace(name, seed=13, n_keys=300, n_requests=3000):
    spec = workload_by_name(name).scaled(n_keys=n_keys, n_requests=n_requests)
    return generate_trace(spec.with_seed(seed))


def predict_placement(trace, profile, system, mask, client):
    """One placement on an analytic kernel."""
    return BatchKernel(client, trace, profile, system, analytic=True).run(mask)


class TestReuseTimeModel:
    def test_fits_entirely_means_infinite_age(self):
        keys = np.array([0, 1, 0, 1])
        sizes = np.full(4, 10)
        assert np.isinf(reuse_time_eviction_age(keys, sizes, 100))

    def test_zero_capacity(self):
        keys = np.array([0, 0])
        sizes = np.full(2, 10)
        assert reuse_time_eviction_age(keys, sizes, 0) == 0.0
        hits = reuse_time_hit_mask(keys, sizes, 0)
        assert hits.shape == keys.shape and not hits.any()

    def test_first_touches_always_miss(self):
        keys = np.array([0, 1, 2, 0, 1, 2])
        sizes = np.full(6, 10)
        hits = reuse_time_hit_mask(keys, sizes, 1000)
        # only the three re-references
        assert hits.tolist() == [False] * 3 + [True] * 3

    @pytest.mark.parametrize("name", PRESETS)
    def test_agrees_with_simulated_lru_on_presets(self, name):
        trace = small_trace(name)
        # a capacity that forces real evictions on these traces
        cap = int(trace.record_sizes.sum() * 0.2)
        predicted = reuse_time_hit_mask(
            trace.keys, trace.request_sizes, cap
        ).sum()
        model = LLCModel(capacity_bytes=cap)
        actual = model.process(trace.keys, trace.request_sizes).sum()
        # the reuse-time model is approximate; 10% of trace length is a
        # loose bound — measured agreement is 98%+ per request
        assert abs(int(predicted) - int(actual)) <= 0.1 * trace.n_requests


class TestPredictPlacement:
    def _setup(self, name="trending", **client_kw):
        trace = small_trace(name)
        system = HybridMemorySystem.testbed()
        profile = RedisLike(system.fast, system.slow).profile
        client = YCSBClient(seed=17, **client_kw)
        return trace, profile, system, client

    def test_bad_mask_raises(self):
        trace, profile, system, client = self._setup()
        with pytest.raises(WorkloadError):
            predict_placement(
                trace, profile, system,
                np.ones(trace.n_keys, dtype=np.int64), client,
            )
        with pytest.raises(WorkloadError):
            predict_placement(
                trace, profile, system,
                np.ones(trace.n_keys + 1, dtype=bool), client,
            )

    def test_all_fast_beats_all_slow(self):
        trace, profile, system, client = self._setup()
        fast = predict_placement(
            trace, profile, system, np.ones(trace.n_keys, dtype=bool), client
        )
        slow = predict_placement(
            trace, profile, system, np.zeros(trace.n_keys, dtype=bool), client
        )
        assert fast.runtime_ns < slow.runtime_ns
        assert fast.runtime_std_ns == 0.0

    @pytest.mark.parametrize("name", PRESETS)
    @pytest.mark.parametrize("use_llc", [False, True])
    def test_runtime_within_five_percent_of_simulator(self, name, use_llc):
        trace, profile, system, client = self._setup(
            name, use_llc=use_llc, repeats=2
        )
        for frac in (0.0, 0.5, 1.0):
            mask = np.zeros(trace.n_keys, dtype=bool)
            mask[: int(frac * trace.n_keys)] = True
            predicted = predict_placement(
                trace, profile, system, mask, client
            )
            (simulated,) = client.execute_placements(
                trace, mask[None, :], profile, system
            )
            err = abs(predicted.runtime_ns - simulated.runtime_ns)
            assert err <= 0.05 * simulated.runtime_ns
            # tails are approximate too, but must stay in the envelope
            for q in client.percentiles:
                perr = abs(predicted.percentile(q) - simulated.percentile(q))
                assert perr <= 0.05 * simulated.percentile(q)

    def test_concurrency_mirrors_simulator(self):
        trace, profile, system, client = self._setup(concurrency=4, repeats=2)
        mask = np.zeros(trace.n_keys, dtype=bool)
        mask[::2] = True
        predicted = predict_placement(trace, profile, system, mask, client)
        (simulated,) = client.execute_placements(
            trace, mask[None, :], profile, system
        )
        err = abs(predicted.runtime_ns - simulated.runtime_ns)
        assert err <= 0.05 * simulated.runtime_ns
        assert predicted.concurrency == 4


class TestPredictBaselines:
    def test_flags_empty_and_ordering(self):
        trace = small_trace("timeline")
        system = HybridMemorySystem.testbed()
        profile = RedisLike(system.fast, system.slow).profile
        baselines = predict_baselines(
            trace, profile, system, YCSBClient(seed=3)
        )
        assert baselines.flags == ()
        assert baselines.fast.runtime_ns < baselines.slow.runtime_ns


class TestAnalyticFaults:
    """An active fault spec applies to a prediction through the kernel's
    one fault path, on the measured placement's timeline."""

    SPEC = "ramp(floor=0.4)"

    def _baselines(self, faults, accuracy):
        client = YCSBClient(seed=5, repeats=2, faults=faults)
        trace = small_trace("trending")
        return Mnemo(client=client).profile(trace, accuracy=accuracy).baselines

    def test_faulty_prediction_tracks_faulty_measurement(self):
        faults = parse_faults(self.SPEC)
        clean = self._baselines(None, "analytic")
        predicted = self._baselines(faults, "analytic")
        measured = self._baselines(faults, "simulate")
        assert predicted.slow.runtime_ns != clean.slow.runtime_ns
        for side in ("fast", "slow"):
            got = getattr(predicted, side).runtime_ns
            want = getattr(measured, side).runtime_ns
            assert abs(got - want) <= 0.05 * want
        assert predicted.flags == measured.flags == (
            "fast:faulty", "slow:faulty",
        )

    def test_timeline_is_the_measured_placements(self):
        """Without its public fingerprint, an analytic kernel still
        roots the fault timeline at the measured placement's."""
        client = YCSBClient(seed=5, repeats=2,
                            faults=parse_faults(self.SPEC))
        trace = small_trace("trending")
        system = HybridMemorySystem.testbed()
        profile = RedisLike(system.fast, system.slow).profile
        mask = np.arange(trace.n_keys) % 3 == 0
        measured = BatchKernel(client, trace, profile, system)
        analytic = BatchKernel(client, trace, profile, system, analytic=True)
        label, base, scale = analytic.base_times(mask)
        assert label == measured.fingerprint(mask)
        want = measured.base_times(mask)
        assert np.array_equal(base, want[1]) and scale is want[2] is None


class TestAnalyticFingerprint:
    def test_an_analytic_kernel_names_no_fingerprint(self):
        """A prediction is not the measurement a store row under the
        measured fingerprint holds: the analytic kernel offers none."""
        trace = small_trace("trending")
        system = HybridMemorySystem.testbed()
        profile = RedisLike(system.fast, system.slow).profile
        client = YCSBClient(seed=5)
        mask = np.arange(trace.n_keys) % 2 == 0
        measured = BatchKernel(client, trace, profile, system)
        analytic = BatchKernel(client, trace, profile, system, analytic=True)
        assert isinstance(measured.fingerprint(mask), str)
        assert analytic.fingerprint(mask) is None


class TestAnalyticTelemetry:
    def test_each_profile_counts_under_its_own_path(self):
        trace = small_trace("trending")
        mnemo = Mnemo(client=YCSBClient(seed=5, repeats=2, use_llc=True))
        with telemetry.session() as tel:
            mnemo.profile(trace, accuracy="analytic")
            mnemo.profile(trace, accuracy="simulate")
        counts = {
            rec["labels"]["path"]: rec["value"]
            for rec in tel.metrics.snapshot() if rec["name"] == "memsim.path"
        }
        assert counts == {"analytic": 2, "batch_kernel": 2}

    def test_predicted_mask_is_never_stored(self, tmp_path):
        client = YCSBClient(seed=5, use_llc=True, cache=tmp_path / "s.db")
        Mnemo(client=client).profile(
            small_trace("trending"), accuracy="analytic"
        )
        assert client.cache.stats().entries["hitmasks"] == 0
        assert not client._hitmask_memo


class TestMnemoAccuracyMode:
    def test_invalid_accuracy_rejected(self):
        with pytest.raises(ConfigurationError):
            Mnemo(accuracy="guess")
        with pytest.raises(ConfigurationError):
            Mnemo().profile(small_trace("trending"), accuracy="guess")

    def test_analytic_profile_produces_report(self):
        trace = small_trace("trending")
        report = Mnemo(
            client=YCSBClient(seed=5), accuracy="analytic"
        ).profile(trace)
        assert report.workload == trace.name
        assert report.baselines.flags == ()

    def test_analytic_close_to_simulated_choice(self):
        trace = small_trace("trending")
        client = YCSBClient(seed=5, repeats=2)
        simulated = Mnemo(client=client).profile(trace)
        analytic = Mnemo(client=client).profile(trace, accuracy="analytic")
        # the two modes must tell the same performance story
        for a, s in (
            (analytic.baselines.fast, simulated.baselines.fast),
            (analytic.baselines.slow, simulated.baselines.slow),
        ):
            assert abs(a.runtime_ns - s.runtime_ns) <= 0.05 * s.runtime_ns

    def test_per_call_override_back_to_simulate(self):
        trace = small_trace("trending")
        client = YCSBClient(seed=5, repeats=2)
        consultant = Mnemo(client=client, accuracy="analytic")
        measured = consultant.profile(trace, accuracy="simulate")
        direct = Mnemo(client=client).profile(trace)
        assert measured.baselines.fast == direct.baselines.fast
