"""Tests for the access-drift analysis extension."""

import numpy as np
import pytest

from dataclasses import replace

from repro.core.drift import (
    DriftReport,
    analyze_drift,
    drift_score,
    static_placement_regret,
    window_counts,
)
from repro.errors import ConfigurationError
from repro.ycsb import generate_trace
from repro.ycsb.distributions import DistributionSpec


@pytest.fixture
def latest_trace(small_spec):
    spec = replace(
        small_spec, name="drift_latest",
        distribution=DistributionSpec(name="latest", window_fraction=0.1),
    )
    return generate_trace(spec)


class TestWindowCounts:
    def test_shape_and_totals(self, small_trace):
        counts = window_counts(small_trace, n_windows=5)
        assert counts.shape == (5, small_trace.n_keys)
        assert counts.sum() == small_trace.n_requests

    def test_windows_partition_requests(self, small_trace):
        counts = window_counts(small_trace, n_windows=4)
        per_window = counts.sum(axis=1)
        assert abs(per_window.max() - per_window.min()) <= 1

    def test_validation(self, small_trace):
        with pytest.raises(ConfigurationError):
            window_counts(small_trace, n_windows=1)


class TestDriftScore:
    def test_hotspot_is_stationary(self, small_trace):
        assert drift_score(small_trace) < 0.4

    def test_latest_drifts(self, latest_trace):
        assert drift_score(latest_trace) > 0.6

    def test_ordering(self, small_trace, latest_trace):
        assert drift_score(latest_trace) > drift_score(small_trace)

    def test_bounds(self, small_trace, latest_trace):
        for t in (small_trace, latest_trace):
            assert 0.0 <= drift_score(t) <= 1.0

    def test_validation(self, small_trace):
        with pytest.raises(ConfigurationError):
            drift_score(small_trace, n_windows=1)


class TestRegret:
    def test_stationary_low_regret(self, small_trace):
        result = static_placement_regret(small_trace, capacity_fraction=0.2)
        assert result.regret < 0.1

    def test_drifting_high_regret(self, latest_trace):
        result = static_placement_regret(latest_trace, capacity_fraction=0.1)
        assert result.regret > 0.2

    def test_oracle_dominates_static(self, small_trace, latest_trace):
        for t in (small_trace, latest_trace):
            r = static_placement_regret(t)
            assert r.oracle_hit_fraction >= r.static_hit_fraction - 1e-12

    def test_full_capacity_no_regret(self, latest_trace):
        r = static_placement_regret(latest_trace, capacity_fraction=1.0)
        assert r.static_hit_fraction == pytest.approx(1.0)
        assert r.regret == pytest.approx(0.0)

    def test_validation(self, small_trace):
        with pytest.raises(ConfigurationError):
            static_placement_regret(small_trace, capacity_fraction=0.0)


class TestAnalyzeDrift:
    def test_hotspot_verdict(self, small_trace):
        report = analyze_drift(small_trace)
        assert isinstance(report, DriftReport)
        assert report.stationary
        assert "stationary" in report.recommendation

    def test_latest_verdict(self, latest_trace):
        report = analyze_drift(latest_trace, capacity_fraction=0.1)
        assert not report.stationary
        assert "dynamic tiering" in report.recommendation

    def test_report_carries_workload_name(self, small_trace):
        assert analyze_drift(small_trace).workload == small_trace.name
