"""Chaos tests: the pipeline survives worker kills, hangs, and cache
corruption, and converges to bit-identical results.

These mirror the failure modes of a real fleet: a worker process dies
mid-experiment (OOM kill), an experiment wedges (hardware fault), a
cache entry is silently corrupted (crashed writer, bit rot).  In every
recoverable case the sweep must finish with numbers identical to a
clean run; in unrecoverable cases it must degrade to completed results
plus a structured :class:`~repro.runner.FailureReport`, never an
unexplained crash.
"""

import time

import pytest

from repro.errors import FaultError
from repro.faults import ChaosPlan, corrupt_store_rows
from repro.runner import (
    CachingClient,
    ClientConfig,
    ExperimentRunner,
    RetryPolicy,
)
from repro.store import SQLiteStore

#: Retries that keep test wall-clock low.
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.01)


@pytest.fixture
def specs(small_spec):
    return ExperimentRunner.grid(
        [small_spec], engines=("redis", "memcached"),
        placements=("fast", "slow"),
    )


@pytest.fixture
def config():
    return ClientConfig(repeats=2, seed=11)


@pytest.fixture
def reference(specs, config):
    """Clean serial results every chaos run must converge to."""
    return ExperimentRunner(client=config).run_grid(specs)


def chaos_runner(tmp_path, config, plan, **kwargs):
    return ExperimentRunner(
        client=config,
        chaos=ChaosPlan(marker_dir=str(tmp_path / "chaos"), **plan),
        retry=kwargs.pop("retry", FAST_RETRY),
        **kwargs,
    )


class TestWorkerKills:
    def test_killed_worker_retried_to_identical_results(
        self, tmp_path, specs, config, reference,
    ):
        victim = specs[1].label
        runner = chaos_runner(
            tmp_path, config, dict(kill_labels=(victim,), mode="exit"),
        )
        outcome = runner.sweep(specs, workers=2)
        assert outcome.ok
        assert list(outcome.results) == reference
        assert runner.chaos.strikes_delivered(victim) == 1

    def test_serial_chaos_downgrades_exit_to_raise(
        self, tmp_path, specs, config, reference,
    ):
        # a serial sweep must never let chaos kill the calling process
        runner = chaos_runner(
            tmp_path, config,
            dict(kill_labels=(specs[0].label,), mode="exit"),
        )
        outcome = runner.sweep(specs, workers=1)
        assert outcome.ok
        assert list(outcome.results) == reference

    def test_repeated_kills_within_budget_still_converge(
        self, tmp_path, specs, config, reference,
    ):
        runner = chaos_runner(
            tmp_path, config,
            dict(kill_labels=(specs[0].label,), mode="raise",
                 max_strikes=2),
        )
        outcome = runner.sweep(specs, workers=2)
        assert outcome.ok
        assert list(outcome.results) == reference


class TestGracefulDegradation:
    def test_unrecoverable_experiment_reported_not_raised(
        self, tmp_path, specs, config, reference,
    ):
        victim = specs[0].label
        runner = chaos_runner(
            tmp_path, config,
            dict(kill_labels=(victim,), mode="raise", max_strikes=10),
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.01),
        )
        outcome = runner.sweep(specs, workers=2)
        assert not outcome.ok
        assert len(outcome.report) == 1
        failure = outcome.report.failures[0]
        assert failure.label == victim
        assert failure.attempts == 2
        # every other experiment completed, bit-identical to clean
        assert outcome.results[0] is None
        assert list(outcome.results[1:]) == reference[1:]

    def test_run_grid_raises_on_failure(self, tmp_path, specs, config):
        runner = chaos_runner(
            tmp_path, config,
            dict(kill_labels=(specs[0].label,), mode="raise",
                 max_strikes=10),
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.01),
        )
        with pytest.raises(FaultError, match="failed"):
            runner.run_grid(specs, workers=2)

    def test_failure_summary_names_the_experiment(
        self, tmp_path, specs, config,
    ):
        victim = specs[0].label
        runner = chaos_runner(
            tmp_path, config,
            dict(kill_labels=(victim,), mode="raise", max_strikes=10),
            retry=RetryPolicy(max_attempts=1, backoff_base_s=0.0),
        )
        outcome = runner.sweep(specs, workers=2)
        assert victim in outcome.report.summary()


class TestTimeouts:
    def test_hung_worker_times_out_and_recovers(
        self, tmp_path, specs, config, reference,
    ):
        victim = specs[0].label
        runner = chaos_runner(
            tmp_path, config,
            dict(kill_labels=(victim,), mode="hang", hang_s=30.0),
            retry=RetryPolicy(max_attempts=2, timeout_s=5.0,
                              backoff_base_s=0.01),
        )
        start = time.monotonic()
        outcome = runner.sweep(specs, workers=2)
        assert time.monotonic() - start < 25.0  # did not sit out the hang
        assert outcome.ok
        assert list(outcome.results) == reference

    def test_persistent_hang_reported_as_timeout(
        self, tmp_path, specs, config,
    ):
        victim = specs[0].label
        runner = chaos_runner(
            tmp_path, config,
            dict(kill_labels=(victim,), mode="hang", hang_s=30.0,
                 max_strikes=10),
            retry=RetryPolicy(max_attempts=1, timeout_s=2.0),
        )
        outcome = runner.sweep(specs, workers=2)
        assert not outcome.ok
        assert outcome.report.failures[0].error == "ExperimentTimeoutError"


class TestCacheCorruption:
    def test_corrupt_entries_quarantined_and_recomputed(
        self, tmp_path, specs, config, reference,
    ):
        cache_dir = tmp_path / "cache"
        runner = ExperimentRunner(cache=cache_dir, client=config)
        assert runner.run_grid(specs) == reference

        cache = SQLiteStore(cache_dir)
        touched = corrupt_store_rows(cache, mode="flip")
        assert touched

        recomputed = ExperimentRunner(
            cache=cache_dir, client=config,
        ).run_grid(specs)
        assert recomputed == reference
        assert cache.stats().total_quarantined > 0

    def test_truncation_detected(self, tmp_path, specs, config, reference):
        cache_dir = tmp_path / "cache"
        ExperimentRunner(cache=cache_dir, client=config).run_grid(specs)
        cache = SQLiteStore(cache_dir)
        corrupt_store_rows(cache, mode="truncate")
        report = cache.verify()
        assert not report.ok
        assert report.total_corrupt == report.total_checked
        # quarantined on verify; the sweep then recomputes cleanly
        assert ExperimentRunner(
            cache=cache_dir, client=config,
        ).run_grid(specs) == reference

    def test_verify_without_repair_leaves_entries(
        self, tmp_path, small_trace,
    ):
        cache = SQLiteStore(tmp_path / "cache")
        client = CachingClient(cache=cache, repeats=1, seed=3)
        from repro.kvstore import RedisLike
        from repro.kvstore.server import HybridDeployment
        from repro.memsim import HybridMemorySystem
        dep = HybridDeployment.all_slow(
            RedisLike, HybridMemorySystem.testbed(), small_trace.record_sizes
        )
        client.execute(small_trace, dep)
        corrupt_store_rows(cache, mode="flip")
        report = cache.verify(repair=False)
        assert not report.ok
        assert cache.stats().total_quarantined == 0
        assert cache.stats().entries["results"] == 1
