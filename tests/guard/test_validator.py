"""Tests for recommendation validation and the fallback search."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, GuardError
from repro.guard.drift import rotate_hot_set
from repro.guard.validator import (
    ErrorBudget,
    RecommendationValidator,
    ValidationVerdict,
)
from repro.kvstore import RedisLike
from repro.store import SQLiteStore
from repro.ycsb import YCSBClient


@pytest.fixture
def validator(guard_client):
    """A cache-less validator sharing the profiling client."""
    return RecommendationValidator(RedisLike, client=guard_client)


class TestErrorBudget:
    def test_defaults_valid(self):
        b = ErrorBudget()
        assert b.throughput_pct == 10.0
        assert b.marginal_fraction == 0.5

    def test_invalid_budgets_raise(self):
        with pytest.raises(ConfigurationError):
            ErrorBudget(throughput_pct=0.0)
        with pytest.raises(ConfigurationError):
            ErrorBudget(marginal_fraction=0.0)


class TestValidate:
    def test_planning_trace_passes(self, validator, guard_report,
                                   small_trace_module):
        choice = guard_report.choose(0.10)
        verdict = validator.validate(
            guard_report.curve, choice, small_trace_module
        )
        assert verdict.passed
        assert verdict.ok
        assert verdict.violating_metric is None
        assert verdict.n_fast_keys == choice.n_fast_keys
        # the neighbourhood was replayed, not just the point itself
        assert len(verdict.points) >= 2

    def test_tiny_budget_rejects_and_names_metric(
        self, guard_client, guard_report, small_trace_module,
    ):
        strict = RecommendationValidator(
            RedisLike, client=guard_client,
            budget=ErrorBudget(throughput_pct=1e-6, latency_pct=1e-6),
        )
        verdict = strict.validate(
            guard_report.curve, guard_report.choose(0.10), small_trace_module
        )
        assert verdict.status == "reject"
        assert not verdict.ok
        assert verdict.violating_metric in ("throughput", "latency")

    def test_marginal_band(self, guard_client, guard_report,
                           small_trace_module):
        # derive a budget from the observed error so the worst ratio
        # lands inside the budget but above the comfort fraction
        probe = RecommendationValidator(RedisLike, client=guard_client)
        choice = guard_report.choose(0.10)
        base = probe.validate(
            guard_report.curve, choice, small_trace_module
        )
        worst = max(base.max_throughput_error_pct,
                    base.max_latency_error_pct)
        assert worst > 0
        marginal = RecommendationValidator(
            RedisLike, client=guard_client,
            budget=ErrorBudget(
                throughput_pct=worst * 1.3,
                latency_pct=worst * 1.3,
                marginal_fraction=0.5,
            ),
        )
        verdict = marginal.validate(
            guard_report.curve, choice, small_trace_module
        )
        assert verdict.status == "marginal"
        assert verdict.ok and not verdict.passed

    def test_out_of_range_split_raises(self, validator, guard_report,
                                       small_trace_module):
        with pytest.raises(GuardError):
            validator.validate(
                guard_report.curve,
                guard_report.curve.n_keys + 1,
                small_trace_module,
            )

    def test_mismatched_key_space_raises(self, validator, guard_report,
                                         small_trace_module):
        bad = rotate_hot_set(small_trace_module, 0)
        bad = type(bad)(
            name="bad",
            keys=bad.keys[: bad.n_requests // 2] % 50,
            is_read=bad.is_read[: bad.n_requests // 2],
            record_sizes=bad.record_sizes[:50],
        )
        with pytest.raises(GuardError):
            validator.validate(guard_report.curve, 10, bad)


class TestVerdictPayload:
    def test_roundtrip(self, validator, guard_report, small_trace_module):
        verdict = validator.validate(
            guard_report.curve, guard_report.choose(0.10), small_trace_module
        )
        assert ValidationVerdict.from_payload(verdict.to_payload()) == verdict

    def test_malformed_payload_raises(self):
        with pytest.raises(GuardError):
            ValidationVerdict.from_payload({"status": "pass"})


class TestCaching:
    def test_rerun_is_a_cache_hit_with_identical_verdict(
        self, tmp_path, guard_client, guard_report, small_trace_module,
    ):
        cache = SQLiteStore(tmp_path / "cache")
        choice = guard_report.choose(0.10)

        first = RecommendationValidator(
            RedisLike, client=guard_client, cache=cache
        )
        v1 = first.validate(guard_report.curve, choice, small_trace_module)
        assert (first.cache_hits, first.cache_misses) == (0, 1)

        second = RecommendationValidator(
            RedisLike, client=guard_client, cache=cache
        )
        v2 = second.validate(guard_report.curve, choice, small_trace_module)
        assert (second.cache_hits, second.cache_misses) == (1, 0)
        assert v1 == v2
        assert v1.fingerprint == v2.fingerprint

    def test_different_trace_changes_fingerprint(
        self, tmp_path, guard_client, guard_report, small_trace_module,
    ):
        cache = SQLiteStore(tmp_path / "cache")
        validator = RecommendationValidator(
            RedisLike, client=guard_client, cache=cache
        )
        choice = guard_report.choose(0.10)
        v1 = validator.validate(
            guard_report.curve, choice, small_trace_module
        )
        v2 = validator.validate(
            guard_report.curve, choice,
            rotate_hot_set(small_trace_module, 60),
        )
        assert v1.fingerprint != v2.fingerprint

    def test_generator_seeded_client_skips_cache(
        self, tmp_path, guard_report, small_trace_module,
    ):
        cache = SQLiteStore(tmp_path / "cache")
        live_rng = YCSBClient(repeats=1, seed=np.random.default_rng(1))
        validator = RecommendationValidator(
            RedisLike, client=live_rng, cache=cache
        )
        verdict = validator.validate(
            guard_report.curve, guard_report.choose(0.10), small_trace_module
        )
        assert verdict.fingerprint == ""
        assert (validator.cache_hits, validator.cache_misses) == (0, 0)
        assert cache.stats().entries["verdicts"] == 0


class TestFallback:
    def test_rotated_trace_rejects_then_falls_back(
        self, validator, guard_report, small_trace_module,
    ):
        live = rotate_hot_set(
            small_trace_module, small_trace_module.n_keys // 2
        )
        choice = guard_report.choose(0.10)
        verdict, fallback = validator.validate_or_fallback(
            guard_report.curve, choice, live
        )
        assert verdict.status == "reject"
        assert fallback is not None
        assert fallback.verdict.ok
        assert fallback.n_fast_keys in fallback.probed
        assert fallback.n_fast_keys != choice.n_fast_keys
        assert fallback.choice.n_fast_keys == fallback.n_fast_keys

    def test_validating_choice_needs_no_fallback(
        self, validator, guard_report, small_trace_module,
    ):
        verdict, fallback = validator.validate_or_fallback(
            guard_report.curve, guard_report.choose(0.10), small_trace_module
        )
        assert verdict.passed
        assert fallback is None

    def test_impossible_budget_raises_guard_error(
        self, guard_client, guard_report, small_trace_module,
    ):
        impossible = RecommendationValidator(
            RedisLike, client=guard_client,
            budget=ErrorBudget(throughput_pct=1e-9, latency_pct=1e-9),
        )
        with pytest.raises(GuardError):
            impossible.find_fallback(
                guard_report.curve, small_trace_module,
                guard_report.choose(0.10), max_probes=2,
            )

    def test_probes_are_nearest_first(self, validator, guard_report):
        step = validator.step(guard_report.curve.n_keys)
        n0 = guard_report.choose(0.10).n_fast_keys
        # reach into the candidate generator via a strict budget run on
        # a rejected split: distances must be non-decreasing
        candidates = []
        for distance in range(1, 4):
            for signed in (n0 + distance * step, n0 - distance * step):
                k = int(np.clip(signed, 0, guard_report.curve.n_keys))
                if k != n0 and k not in candidates:
                    candidates.append(k)
        distances = [abs(k - n0) for k in candidates]
        assert distances == sorted(distances)
