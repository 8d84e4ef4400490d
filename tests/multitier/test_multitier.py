"""Tests for the multi-tier extension."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, EstimateError, WorkloadError
from repro.kvstore.profiles import REDIS_PROFILE
from repro.memsim.timing import AccessTimer
from repro.rng import derive_seed
from repro.multitier import (
    MultiTierAdvisor,
    MultiTierClient,
    TieredMemorySystem,
    TierSpec,
)


def access_timer_execute(client, trace, assignment, n):
    """Oracle: ``MultiTierClient.execute`` as a per-repeat
    ``AccessTimer`` loop over request-long operands, as it was written
    before it gathered the shared service-time tables (its *n*-th call)."""
    prof = client.profile
    req_tier = assignment[trace.keys]
    sizes = trace.record_sizes[trace.keys] + prof.metadata_bytes
    latency = client.system.latency_array()[req_tier]
    bpns = client.system.bandwidth_array()[req_tier]
    passes = np.where(trace.is_read, prof.read_passes, prof.write_passes)
    cpu = np.where(trace.is_read, prof.read_cpu_ns, prof.write_cpu_ns)
    n_reads = int(trace.is_read.sum())
    n_writes = trace.n_requests - n_reads
    runtimes = np.empty(client.repeats)
    read_sums = np.empty(client.repeats)
    for r in range(client.repeats):
        timer = AccessTimer(
            noise=client.noise,
            seed=derive_seed(client.seed, f"{trace.name}/mt-exec{n}/run{r}"),
        )
        times = timer.request_times_ns(sizes, latency, bpns, passes, cpu)
        runtimes[r] = times.sum()
        read_sums[r] = times[trace.is_read].sum()
    runtime = float(runtimes.mean())
    read_sum = float(read_sums.mean())
    return dict(
        runtime_ns=runtime,
        avg_read_ns=read_sum / n_reads if n_reads else 0.0,
        avg_write_ns=(runtime - read_sum) / n_writes if n_writes else 0.0,
        runtime_std_ns=float(runtimes.std()),
    )


@pytest.fixture
def system():
    return TieredMemorySystem.dram_nvm_far()


@pytest.fixture
def advisor(system):
    return MultiTierAdvisor(system, REDIS_PROFILE, repeats=1,
                            noise_sigma=0.0)


@pytest.fixture
def baselines(advisor, small_trace):
    return advisor.measure(small_trace)


class TestTierSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TierSpec("x", latency_ns=0, bandwidth_gbps=1, price_factor=1)
        with pytest.raises(ConfigurationError):
            TierSpec("x", latency_ns=1, bandwidth_gbps=1, price_factor=1.5)
        with pytest.raises(ConfigurationError):
            TierSpec("x", latency_ns=1, bandwidth_gbps=1, price_factor=0.5,
                     capacity_bytes=0)


class TestTieredMemorySystem:
    def test_preset_ordering(self, system):
        assert system.names == ["DRAM", "NVM", "Far"]
        assert (np.diff(system.latency_array()) > 0).all()
        assert (np.diff(system.price_array()) < 0).all()

    def test_tier0_price_reference_required(self):
        with pytest.raises(ConfigurationError):
            TieredMemorySystem([
                TierSpec("a", 60, 10, 0.9),
                TierSpec("b", 200, 2, 0.2),
            ])

    def test_fast_first_required(self):
        with pytest.raises(ConfigurationError):
            TieredMemorySystem([
                TierSpec("a", 200, 10, 1.0),
                TierSpec("b", 60, 2, 0.2),
            ])

    def test_needs_two_tiers(self):
        with pytest.raises(ConfigurationError):
            TieredMemorySystem([TierSpec("a", 60, 10, 1.0)])

    def test_cost_factor_anchors(self, system):
        assert system.cost_factor([100, 0, 0]) == 1.0
        assert system.cost_factor([0, 100, 0]) == pytest.approx(0.2)
        assert system.cost_factor([0, 0, 100]) == pytest.approx(0.08)

    def test_cost_factor_mix(self, system):
        # 50/30/20 split
        r = system.cost_factor([50, 30, 20])
        assert r == pytest.approx(0.5 + 0.3 * 0.2 + 0.2 * 0.08)

    def test_cost_factor_validation(self, system):
        with pytest.raises(ConfigurationError):
            system.cost_factor([1, 2])
        with pytest.raises(ConfigurationError):
            system.cost_factor([0, 0, 0])

    def test_two_tier_degenerate_matches_paper(self):
        two = TieredMemorySystem.paper_two_tier()
        assert two.cost_factor([20, 80]) == pytest.approx(0.36)


class TestMultiTierClient:
    def test_faster_tier_faster_run(self, system, small_trace):
        client = MultiTierClient(system, REDIS_PROFILE, repeats=1,
                                 noise_sigma=0.0)
        runs = [
            client.execute(small_trace,
                           np.full(small_trace.n_keys, k, dtype=np.int64))
            for k in range(3)
        ]
        assert (runs[0].runtime_ns < runs[1].runtime_ns
                < runs[2].runtime_ns)

    def test_assignment_validation(self, system, small_trace):
        client = MultiTierClient(system, REDIS_PROFILE, repeats=1)
        with pytest.raises(WorkloadError):
            client.execute(small_trace, np.zeros(3, dtype=np.int64))
        with pytest.raises(WorkloadError):
            client.execute(
                small_trace, np.full(small_trace.n_keys, 9, dtype=np.int64)
            )

    def test_matches_two_tier_client(self, small_trace, mixed_trace):
        """The degenerate 2-tier system reproduces the paper pipeline's
        numbers exactly (same table, same noise model off)."""
        from repro.kvstore import HybridDeployment, RedisLike
        from repro.memsim import HybridMemorySystem
        from repro.ycsb import YCSBClient

        two = TieredMemorySystem.paper_two_tier()
        rng = np.random.default_rng(3)
        for trace in (small_trace, mixed_trace):
            fast = rng.random(trace.n_keys) < 0.3
            mt_client = MultiTierClient(two, REDIS_PROFILE, repeats=2,
                                        noise_sigma=0.0)
            mt = mt_client.execute(trace, np.where(fast, 0, 1))
            dep = HybridDeployment(
                RedisLike, HybridMemorySystem.testbed(), trace.record_sizes,
                fast_keys=np.flatnonzero(fast),
            )
            classic = YCSBClient(repeats=2, noise_sigma=0.0,
                                 percentiles=()).execute(trace, dep)
            assert mt == classic

    @pytest.mark.parametrize("engine", ["redis", "memcached", "dynamodb"])
    @pytest.mark.parametrize("tiers", ["dram_nvm_far", "paper_two_tier"])
    def test_noisy_run_matches_the_access_timer_loop(self, mixed_trace,
                                                     engine, tiers):
        from repro.kvstore.profiles import profile_for

        system = getattr(TieredMemorySystem, tiers)()
        client = MultiTierClient(system, profile_for(engine), repeats=3,
                                 noise_sigma=0.01, seed=11)
        rng = np.random.default_rng(5)
        for n in (1, 2):
            assignment = rng.integers(0, len(system), mixed_trace.n_keys)
            got = client.execute(mixed_trace, assignment)
            want = access_timer_execute(client, mixed_trace, assignment, n)
            assert got.runtime_ns == want["runtime_ns"]
            assert got.avg_read_ns == want["avg_read_ns"]
            assert got.runtime_std_ns == want["runtime_std_ns"]
            # the mean of differences, not the difference of means
            assert abs(got.avg_write_ns - want["avg_write_ns"]) <= (
                4 * np.spacing(want["avg_write_ns"])
            )


class TestWaterfall:
    def test_respects_capacities(self, advisor, small_trace):
        total = int(small_trace.record_sizes.sum())
        caps = [total // 4, total // 4, None]
        assignment = advisor.waterfall_assignment(small_trace, caps)
        bytes_t = np.bincount(assignment, weights=small_trace.record_sizes,
                              minlength=3)
        assert bytes_t[0] <= caps[0]
        assert bytes_t[1] <= caps[1]
        assert bytes_t.sum() == total

    def test_hottest_keys_in_fastest_tier(self, advisor, small_trace):
        total = int(small_trace.record_sizes.sum())
        assignment = advisor.waterfall_assignment(
            small_trace, [total // 4, total // 4, None]
        )
        counts = np.bincount(small_trace.keys, minlength=small_trace.n_keys)
        weights = counts / small_trace.record_sizes
        assert weights[assignment == 0].mean() > weights[assignment == 2].mean()

    def test_unfittable_capacity_rejected(self, advisor, small_trace):
        with pytest.raises(EstimateError):
            advisor.waterfall_assignment(small_trace, [100, 100, 100])

    def test_capacity_count_validated(self, advisor, small_trace):
        with pytest.raises(ConfigurationError):
            advisor.waterfall_assignment(small_trace, [None, None])


class TestEstimate:
    def test_estimate_exact_without_noise(self, advisor, baselines,
                                          small_trace):
        """With noiseless baselines and uniform-ish sizes the N-tier
        model telescopes to the measured runtime."""
        total = int(small_trace.record_sizes.sum())
        plan = advisor.estimate(small_trace, baselines,
                                [total // 3, total // 3, None])
        measured = advisor.validate(small_trace, plan)
        assert plan.est_runtime_ns == pytest.approx(
            measured.runtime_ns, rel=0.01
        )

    def test_all_in_tier_endpoints(self, advisor, baselines, small_trace):
        for k in range(3):
            assignment = np.full(small_trace.n_keys, k, dtype=np.int64)
            plan = advisor.estimate_assignment(small_trace, baselines,
                                               assignment)
            assert plan.est_runtime_ns == pytest.approx(
                baselines.runs[k].runtime_ns, rel=1e-9
            )

    def test_cost_between_bounds(self, advisor, baselines, small_trace):
        total = int(small_trace.record_sizes.sum())
        plan = advisor.estimate(small_trace, baselines,
                                [total // 3, total // 3, None])
        assert 0.08 < plan.cost_factor < 1.0

    def test_tier_shares_sum_to_one(self, advisor, baselines, small_trace):
        total = int(small_trace.record_sizes.sum())
        plan = advisor.estimate(small_trace, baselines,
                                [total // 2, None, None])
        assert plan.tier_shares().sum() == pytest.approx(1.0)


class TestSweepAndSlo:
    def _grid(self, total):
        fracs = [0.0, 0.1, 0.25, 0.5, 1.0]
        grid = []
        for f0 in fracs:
            for f1 in fracs:
                if f0 + f1 <= 1.0:
                    grid.append([int(f0 * total) or None if f0 == 0 else
                                 int(f0 * total),
                                 int(f1 * total) if f1 else 1,
                                 None])
        return grid

    def test_sweep_and_pareto(self, advisor, baselines, small_trace):
        total = int(small_trace.record_sizes.sum())
        grid = [[int(f0 * total) + 1, int(f1 * total) + 1, None]
                for f0 in (0.1, 0.3, 0.5) for f1 in (0.1, 0.3, 0.5)]
        plans = advisor.sweep(small_trace, baselines, grid)
        frontier = advisor.pareto(plans)
        assert 1 <= len(frontier) <= len(plans)
        costs = [p.cost_factor for p in frontier]
        thrs = [p.est_throughput_ops_s for p in frontier]
        assert costs == sorted(costs)
        assert thrs == sorted(thrs)

    def test_slo_choice(self, advisor, baselines, small_trace):
        total = int(small_trace.record_sizes.sum())
        grid = [[max(1, int(f0 * total)), max(1, int(f1 * total)), None]
                for f0 in (0.05, 0.2, 0.5, 1.0) for f1 in (0.05, 0.3, 0.6)]
        plans = advisor.sweep(small_trace, baselines, grid)
        choice = advisor.cheapest_within_slo(plans, baselines, 0.10)
        ref = baselines.runs[0].throughput_ops_s
        assert choice.est_throughput_ops_s >= 0.9 * ref
        # three tiers beat the two-tier floor of 0.2 when the far tier
        # can absorb cold data
        assert choice.cost_factor < 1.0

    def test_slo_unreachable_raises(self, advisor, baselines, small_trace):
        assignment = np.full(small_trace.n_keys, 2, dtype=np.int64)
        plan = advisor.estimate_assignment(small_trace, baselines, assignment)
        with pytest.raises(EstimateError):
            advisor.cheapest_within_slo([plan], baselines, 0.0)
