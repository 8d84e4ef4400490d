"""End-to-end tests for the closed guard loop.

The acceptance scenario: a recommendation planned on a zipfian trace is
rejected by the validator once the hot set rotates past the drift "act"
threshold, the fallback search returns a split that does validate, and
the whole loop is deterministic — a rerun against the same cache is a
pure hit yielding a bit-identical verdict.
"""

import dataclasses

import pytest

from repro.core import Mnemo
from repro.guard import GuardLoop
from repro.guard.drift import rotate_hot_set
from repro.guard.validator import ErrorBudget
from repro.kvstore import RedisLike
from repro.store import SQLiteStore
from repro.ycsb import YCSBClient, generate_trace
from repro.ycsb.distributions import DistributionSpec
from repro.ycsb.sizes import THUMBNAIL
from repro.ycsb.workload import WorkloadSpec


@pytest.fixture(scope="module")
def zipf_trace():
    """A small scrambled-zipfian planning trace."""
    spec = WorkloadSpec(
        name="guard_zipf",
        distribution=DistributionSpec(name="scrambled_zipfian"),
        read_fraction=0.9,
        size_model=THUMBNAIL,
        n_keys=200,
        n_requests=4_000,
        seed=23,
    )
    return generate_trace(spec)


def _mnemo(cache=None):
    return Mnemo(
        engine_factory=RedisLike,
        client=YCSBClient(repeats=1, seed=23),
        cache=cache,
    )


class TestCleanPass:
    def test_matching_live_trace_exits_zero(self, zipf_trace):
        mnemo = _mnemo()
        report = mnemo.profile(zipf_trace)
        outcome = mnemo.guard_loop().run(
            report, zipf_trace, live_trace=zipf_trace
        )
        assert outcome.ok
        assert outcome.exit_code == 0
        assert outcome.verdict.passed
        assert outcome.fallback is None
        assert outcome.advice.keep
        assert outcome.headroom == 1.0

    def test_no_live_trace_skips_drift(self, zipf_trace):
        mnemo = _mnemo()
        report = mnemo.profile(zipf_trace)
        outcome = mnemo.guard_loop().run(report, zipf_trace)
        assert outcome.drift is None
        assert outcome.advice.keep
        assert "not checked" in "\n".join(outcome.lines())

    def test_validation_can_be_skipped(self, zipf_trace):
        mnemo = _mnemo()
        report = mnemo.profile(zipf_trace)
        outcome = mnemo.guard_loop().run(
            report, zipf_trace, live_trace=zipf_trace, validate=False
        )
        assert outcome.verdict is None
        assert outcome.exit_code == 0


class TestAcceptanceScenario:
    def test_rotation_past_act_threshold_rejects_then_replans(
        self, zipf_trace,
    ):
        mnemo = _mnemo()
        report = mnemo.profile(zipf_trace)
        live = rotate_hot_set(zipf_trace, zipf_trace.n_keys // 2)

        outcome = mnemo.guard_loop().run(
            report, zipf_trace, live_trace=live
        )
        # drift crossed the act threshold
        assert outcome.drift.level == "act"
        assert outcome.advice.action == "reprofile"
        # the original recommendation was rejected by replay
        assert outcome.verdict.status == "reject"
        assert outcome.verdict.violating_metric is not None
        # and the fallback search found a split that validates
        assert outcome.replanned
        assert outcome.fallback.verdict.ok
        assert outcome.choice.n_fast_keys == outcome.fallback.n_fast_keys
        assert outcome.exit_code == 3

    def test_loop_is_deterministic_and_cache_hit_on_rerun(
        self, zipf_trace, tmp_path,
    ):
        live = rotate_hot_set(zipf_trace, zipf_trace.n_keys // 2)
        cache = SQLiteStore(tmp_path / "cache")

        mnemo1 = _mnemo(cache=cache)
        loop1 = mnemo1.guard_loop()
        out1 = loop1.run(mnemo1.profile(zipf_trace), zipf_trace,
                         live_trace=live)
        assert loop1.validator.cache_hits == 0
        assert loop1.validator.cache_misses > 0

        mnemo2 = _mnemo(cache=cache)
        loop2 = mnemo2.guard_loop()
        out2 = loop2.run(mnemo2.profile(zipf_trace), zipf_trace,
                         live_trace=live)
        # every verdict came straight from the cache the second time
        assert loop2.validator.cache_misses == 0
        assert loop2.validator.cache_hits == loop1.validator.cache_misses
        # and the outcomes are bit-identical
        assert out1.verdict == out2.verdict
        assert out1.verdict.fingerprint == out2.verdict.fingerprint
        assert out1.fallback.verdict == out2.fallback.verdict
        assert out1.choice == out2.choice
        assert out1.exit_code == out2.exit_code

    def test_widen_margin_band_warns(self, zipf_trace):
        from repro.guard.drift import DriftThresholds

        mnemo = _mnemo()
        report = mnemo.profile(zipf_trace)
        live = rotate_hot_set(zipf_trace, zipf_trace.n_keys // 2)
        # thresholds placed so the rotation lands in the warn band; a
        # huge error budget keeps validation out of the picture
        loop = mnemo.guard_loop(
            budget=ErrorBudget(throughput_pct=1e6, latency_pct=1e6),
            thresholds=DriftThresholds(
                divergence_warn=0.01, divergence_act=0.99,
                churn_warn=0.01, churn_act=1.1,
                size_warn=0.9, size_act=0.99,
            ),
        )
        outcome = loop.run(report, zipf_trace, live_trace=live)
        assert outcome.advice.action == "widen_margin"
        assert outcome.headroom > 1.0
        assert outcome.effective_slowdown < 0.10
        assert outcome.exit_code == 1

    def test_degraded_confidence_warns(self, zipf_trace):
        mnemo = _mnemo()
        report = mnemo.profile(zipf_trace)
        baselines = dataclasses.replace(
            report.baselines, flags=("fast:estimated",)
        )
        degraded = dataclasses.replace(report, baselines=baselines)
        outcome = mnemo.guard_loop(
            budget=ErrorBudget(throughput_pct=1e6, latency_pct=1e6),
        ).run(degraded, zipf_trace, live_trace=zipf_trace)
        assert outcome.headroom == pytest.approx(1.5)
        assert outcome.exit_code == 1

    def test_lines_cover_every_stage(self, zipf_trace):
        mnemo = _mnemo()
        report = mnemo.profile(zipf_trace)
        live = rotate_hot_set(zipf_trace, zipf_trace.n_keys // 2)
        text = "\n".join(
            mnemo.guard_loop().run(report, zipf_trace, live_trace=live).lines()
        )
        for fragment in ("divergence", "advice", "margin", "validation",
                         "fallback", "deploy"):
            assert fragment in text


class TestGuardLoopConstruction:
    def test_loop_inherits_mnemo_cache(self, zipf_trace, tmp_path):
        mnemo = _mnemo(cache=SQLiteStore(tmp_path / "c"))
        loop = mnemo.guard_loop()
        assert loop.validator.cache is mnemo.client.cache

    def test_loop_without_cache(self, zipf_trace):
        loop = _mnemo().guard_loop()
        assert loop.validator.cache is None

    def test_standalone_construction(self, zipf_trace):
        mnemo = _mnemo()
        loop = GuardLoop(mnemo)
        report = mnemo.profile(zipf_trace)
        assert loop.run(report, zipf_trace).exit_code == 0
