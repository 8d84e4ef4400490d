"""Tests for the streaming workload-drift detectors."""

import numpy as np
import pytest

from repro.errors import GuardError
from repro.guard.drift import (
    DriftDetector,
    DriftThresholds,
    detect_drift,
    hot_set_churn,
    js_divergence,
    kl_divergence,
    rotate_hot_set,
    size_shift,
)
from repro.ycsb import generate_trace


class TestDivergence:
    def test_identical_is_zero(self):
        p = np.array([0.5, 0.3, 0.2])
        assert js_divergence(p, p) == pytest.approx(0.0, abs=1e-12)
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-9)

    def test_js_bounded_by_one(self):
        p = np.array([1.0, 0.0, 0.0])
        q = np.array([0.0, 0.0, 1.0])
        assert js_divergence(p, q) == pytest.approx(1.0, abs=1e-6)

    def test_js_symmetric(self):
        rng = np.random.default_rng(3)
        p, q = rng.random(50), rng.random(50)
        assert js_divergence(p, q) == pytest.approx(js_divergence(q, p))

    def test_unnormalised_inputs_accepted(self):
        p = np.array([5.0, 3.0, 2.0])
        q = np.array([0.5, 0.3, 0.2])
        assert js_divergence(p, q) == pytest.approx(0.0, abs=1e-9)

    def test_shape_mismatch_raises(self):
        with pytest.raises(GuardError):
            js_divergence(np.ones(3), np.ones(4))


class TestChurnAndSize:
    def test_no_churn_for_identical_mass(self):
        mass = np.array([10.0, 5.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        assert hot_set_churn(mass, mass) == 0.0

    def test_full_churn_when_hot_set_moves(self):
        ref = np.array([10.0, 10.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        live = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 10.0, 10.0])
        assert hot_set_churn(ref, live, top_fraction=0.2) == 1.0

    def test_size_shift_relative(self):
        assert size_shift(100.0, 125.0) == pytest.approx(0.25)
        assert size_shift(100.0, 75.0) == pytest.approx(0.25)


class TestRotateHotSet:
    def test_rotation_preserves_shape_and_histogram(self, small_trace):
        rotated = rotate_hot_set(small_trace, 37)
        assert rotated.n_requests == small_trace.n_requests
        assert rotated.n_keys == small_trace.n_keys
        assert np.array_equal(
            np.sort(np.bincount(rotated.keys, minlength=rotated.n_keys)),
            np.sort(np.bincount(small_trace.keys,
                                minlength=small_trace.n_keys)),
        )

    def test_zero_rotation_is_identity(self, small_trace):
        rotated = rotate_hot_set(small_trace, 0)
        assert np.array_equal(rotated.keys, small_trace.keys)


class TestDetector:
    def test_identical_trace_keeps(self, small_trace):
        report = detect_drift(small_trace, small_trace)
        assert report.level == "ok"
        assert report.advice.action == "keep"
        assert report.advice.keep

    def test_rotated_trace_triggers_act(self, small_trace):
        live = rotate_hot_set(small_trace, small_trace.n_keys // 2)
        report = detect_drift(small_trace, live)
        assert report.level == "act"
        assert report.advice.action == "reprofile"

    def test_streaming_chunks_match_whole_trace(self, small_trace):
        live = rotate_hot_set(small_trace, 50)
        whole = detect_drift(small_trace, live)

        det = DriftDetector(small_trace)
        third = live.n_requests // 3
        det.observe(live.keys[:third])
        det.observe(live.keys[third:2 * third])
        det.observe(live.keys[2 * third:])
        chunked = det.report()

        for a, b in zip(whole.signals, chunked.signals):
            assert a.metric == b.metric
            assert a.value == pytest.approx(b.value)

    def test_empty_stream_raises(self, small_trace):
        with pytest.raises(GuardError):
            DriftDetector(small_trace).report()

    def test_out_of_range_key_raises(self, small_trace):
        det = DriftDetector(small_trace)
        with pytest.raises(GuardError):
            det.observe(np.array([small_trace.n_keys + 5]))

    def test_thresholds_tune_the_verdict(self, small_trace):
        live = rotate_hot_set(small_trace, small_trace.n_keys // 2)
        lax = DriftThresholds(
            divergence_warn=0.95, divergence_act=0.99,
            churn_warn=1.01, churn_act=1.1,
            size_warn=0.9, size_act=0.99,
        )
        report = detect_drift(small_trace, live, thresholds=lax)
        assert report.level == "ok"

    def test_warn_band_advises_widen(self, small_trace):
        live = rotate_hot_set(small_trace, small_trace.n_keys // 2)
        # thresholds placed so the rotation lands between warn and act
        between = DriftThresholds(
            divergence_warn=0.01, divergence_act=0.99,
            churn_warn=0.01, churn_act=1.1,
            size_warn=0.9, size_act=0.99,
        )
        report = detect_drift(small_trace, live, thresholds=between)
        assert report.level == "warn"
        assert report.advice.action == "widen_margin"

    def test_lines_render(self, small_trace):
        report = detect_drift(small_trace, small_trace)
        text = "\n".join(report.lines())
        assert "divergence" in text
        assert "advice" in text


class TestSensitivityEngineIntegration:
    def test_drift_between_descriptor_and_live(self, small_trace):
        live = rotate_hot_set(small_trace, small_trace.n_keys // 2)
        report = detect_drift(small_trace, live)
        assert report.advice.action == "reprofile"
