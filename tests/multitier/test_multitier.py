"""Tests for the multi-tier extension.

The tiered system is a :class:`HybridMemorySystem` with ``far`` tiers,
its cost law is :func:`repro.cost.model.tier_cost_factor`, and its
measurements are the batch kernel's, placement = one tier per key.
"""

import numpy as np
import pytest

from repro.cost.model import (
    DEFAULT_PRICE_FACTOR,
    FAR_PRICE_FACTOR,
    check_tier_prices,
    cost_reduction_factor,
    tier_cost_factor,
)
from repro.errors import ConfigurationError, EstimateError, WorkloadError
from repro.kvstore.profiles import REDIS_PROFILE, profile_for
from repro.memsim.kernel import TIER_DTYPE, BatchKernel, check_placement
from repro.memsim.node import MemoryNode, NodeKind
from repro.memsim.system import HybridMemorySystem
from repro.memsim.timing import AccessTimer, service_times_ns
from repro.multitier import MultiTierAdvisor
from repro.rng import derive_seed
from repro.runner.fingerprint import system_fingerprint
from repro.ycsb.client import YCSBClient

PRICES = (1.0, DEFAULT_PRICE_FACTOR, FAR_PRICE_FACTOR)


def access_timer_execute(client, trace, system, profile, placement, label):
    """Oracle: one placement measured as a per-repeat ``AccessTimer``
    loop over request-long operands, its noise rooted in *label* (the
    placement's experiment fingerprint).  ``run_sd`` is the sd of one
    repeat's total under the per-request noise law."""
    req_tier = placement[trace.keys]
    sizes = trace.record_sizes[trace.keys] + profile.metadata_bytes
    latency = np.array([n.latency_ns for n in system.nodes])[req_tier]
    bpns = np.array([n.bytes_per_ns for n in system.nodes])[req_tier]
    passes = np.where(trace.is_read, profile.read_passes,
                      profile.write_passes)
    cpu = np.where(trace.is_read, profile.read_cpu_ns, profile.write_cpu_ns)
    n_reads = int(trace.is_read.sum())
    n_writes = trace.n_requests - n_reads
    runtimes = np.empty(client.repeats)
    read_sums = np.empty(client.repeats)
    for r in range(client.repeats):
        timer = AccessTimer(
            noise=client.noise, seed=derive_seed(client.seed, f"{label}/run{r}"),
        )
        times = timer.request_times_ns(sizes, latency, bpns, passes, cpu)
        runtimes[r] = times.sum()
        read_sums[r] = times[trace.is_read].sum()
    runtime = float(runtimes.mean())
    read_sum = float(read_sums.mean())
    base = service_times_ns(sizes, latency, bpns, passes, cpu)
    return dict(
        runtime_ns=runtime,
        avg_read_ns=read_sum / n_reads if n_reads else 0.0,
        avg_write_ns=(runtime - read_sum) / n_writes if n_writes else 0.0,
        runtime_std_ns=float(runtimes.std()),
        run_sd=client.noise.sigma * float(np.sqrt((base * base).sum())),
    )


def tiers(n_keys, k):
    return np.full(n_keys, k, dtype=TIER_DTYPE)


@pytest.fixture
def system():
    return HybridMemorySystem.dram_nvm_far()


@pytest.fixture
def advisor(system):
    return MultiTierAdvisor(system, REDIS_PROFILE, PRICES,
                            YCSBClient(repeats=1, noise_sigma=0.0))


@pytest.fixture
def baselines(advisor, small_trace):
    return advisor.measure(small_trace)


class TestTierSpec:
    """A tier is a memory node plus its price factor."""

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MemoryNode("x", NodeKind.SLOW, latency_ns=0, bandwidth_gbps=1,
                       capacity_bytes=1)
        with pytest.raises(ConfigurationError):
            check_tier_prices([1.0, 1.5])
        with pytest.raises(ConfigurationError):
            check_tier_prices([1.0, 0.0])
        with pytest.raises(ConfigurationError):
            MemoryNode("x", NodeKind.SLOW, latency_ns=1, bandwidth_gbps=1,
                       capacity_bytes=0)


class TestTieredMemorySystem:
    """The N-tier system (``HybridMemorySystem.far``) and its cost law."""

    def test_preset_ordering(self, system):
        assert [n.name for n in system.nodes] == ["FastMem", "SlowMem", "Far"]
        assert (np.diff([n.latency_ns for n in system.nodes]) > 0).all()
        assert (np.diff([n.bandwidth_gbps for n in system.nodes]) < 0).all()
        assert (np.diff(check_tier_prices(PRICES)) < 0).all()
        assert system.total_capacity_bytes == sum(
            n.capacity_bytes for n in system.nodes
        )

    def test_tier0_price_reference_required(self):
        with pytest.raises(ConfigurationError):
            check_tier_prices([0.9, 0.2])

    def test_fast_first_required(self):
        two = HybridMemorySystem.testbed()
        too_quick = MemoryNode("far", NodeKind.SLOW, latency_ns=100.0,
                               bandwidth_gbps=1.0, capacity_bytes=1)
        with pytest.raises(ConfigurationError, match="must not decrease"):
            HybridMemorySystem(fast=two.fast, slow=two.slow,
                               far=(too_quick,))
        with pytest.raises(ConfigurationError):
            check_tier_prices([1.0, 0.2, 0.5])

    def test_cost_factor_anchors(self):
        assert tier_cost_factor([100, 0, 0], PRICES) == 1.0
        assert tier_cost_factor([0, 100, 0], PRICES) == pytest.approx(0.2)
        assert tier_cost_factor([0, 0, 100], PRICES) == pytest.approx(0.08)

    def test_cost_factor_mix(self):
        # 50/30/20 split
        r = tier_cost_factor([50, 30, 20], PRICES)
        assert r == pytest.approx(0.5 + 0.3 * 0.2 + 0.2 * 0.08)

    def test_cost_factor_validation(self):
        with pytest.raises(ConfigurationError):
            tier_cost_factor([1, 2], PRICES)
        with pytest.raises(ConfigurationError):
            tier_cost_factor([0, 0, 0], PRICES)
        with pytest.raises(ConfigurationError):
            tier_cost_factor([1, 2], [1.0, 1.2])

    def test_two_tier_degenerate_matches_paper(self):
        two = (1.0, DEFAULT_PRICE_FACTOR)
        assert tier_cost_factor([20, 80], two) == pytest.approx(0.36)
        assert tier_cost_factor([20, 80], two) == pytest.approx(
            cost_reduction_factor(20, 100), rel=1e-15
        )

    def test_far_tiers_in_the_fingerprint_only_when_present(self, system):
        two = HybridMemorySystem.testbed()
        assert "far" not in system_fingerprint(two)
        assert system_fingerprint(system)["far"] == [{
            "latency_ns": 500.0, "bandwidth_gbps": 0.9,
            "capacity_bytes": system.far[0].capacity_bytes,
        }]

    def test_degraded_carries_the_far_tiers(self, system):
        worn = system.degraded(slow_bandwidth_factor=0.5)
        assert [n.name for n in worn.nodes] == ["FastMem", "SlowMem", "Far"]
        assert system_fingerprint(worn)["far"] == system_fingerprint(
            system
        )["far"]


class TestMultiTierClient:
    """N-tier measurement: the client's batch kernel over tier placements."""

    def test_faster_tier_faster_run(self, advisor, small_trace):
        runs = advisor.measure(small_trace).runs
        assert (runs[0].runtime_ns < runs[1].runtime_ns
                < runs[2].runtime_ns)

    def test_assignment_validation(self, system, small_trace):
        n = small_trace.n_keys
        kernel = BatchKernel(YCSBClient(repeats=1), small_trace,
                             REDIS_PROFILE, system)
        for bad in (np.zeros(3, dtype=TIER_DTYPE),   # not every key
                    tiers(n, 9),                      # no tier 9
                    np.zeros(n, dtype=np.int64),      # not a tier dtype
                    np.zeros(n)):
            with pytest.raises(WorkloadError):
                kernel.run(bad)
            with pytest.raises(WorkloadError):
                check_placement(bad, n, 3)
        # two tiers: a tier placement is the bool mask tier == 0; more:
        # a bool mask puts every other key on SlowMem
        placement = (np.arange(n) % 2).astype(TIER_DTYPE)
        assert np.array_equal(check_placement(placement, n, 2),
                              placement == 0)
        mask = placement == 0
        assert np.array_equal(check_placement(mask, n, 3),
                              np.where(mask, 0, 1).astype(TIER_DTYPE))
        assert kernel.fingerprint(mask) == kernel.fingerprint(
            np.where(mask, 0, 1).astype(TIER_DTYPE)
        )

    def test_measurement_does_not_depend_on_call_order(self, system,
                                                       mixed_trace):
        """Measuring one placement alone, again, and inside a batch at
        another position gives one result (fingerprint-rooted noise)."""
        client = YCSBClient(repeats=2, seed=7)
        rng = np.random.default_rng(4)
        placement = rng.integers(0, 3, mixed_trace.n_keys).astype(TIER_DTYPE)
        other = tiers(mixed_trace.n_keys, 1)
        (first,) = client.execute_placements(
            mixed_trace, [placement], REDIS_PROFILE, system)
        (second,) = client.execute_placements(
            mixed_trace, [placement], REDIS_PROFILE, system)
        _, batched = client.execute_placements(
            mixed_trace, [other, placement], REDIS_PROFILE, system)
        assert first == second == batched

    def test_measure_through_a_caching_client_recalls(self, system,
                                                      mixed_trace, tmp_path):
        client = YCSBClient(repeats=2, seed=7, cache=tmp_path / "store.db")
        advisor = MultiTierAdvisor(system, REDIS_PROFILE, PRICES, client)
        cold = advisor.measure(mixed_trace)
        assert (client.cache_hits, client.cache_misses) == (0, 3)
        warm = advisor.measure(mixed_trace)
        assert (client.cache_hits, client.cache_misses) == (3, 3)
        assert warm == cold
        plain = MultiTierAdvisor(system, REDIS_PROFILE, PRICES,
                                 YCSBClient(repeats=2, seed=7))
        assert plain.measure(mixed_trace) == cold

    def test_matches_two_tier_client(self, small_trace, mixed_trace):
        """On the paper's two-tier system the N-tier baselines *are*
        Mnemo's FastMem-only and SlowMem-only baselines, noise and all."""
        from repro.core.mnemo import Mnemo

        for trace in (small_trace, mixed_trace):
            client = YCSBClient(repeats=2, noise_sigma=0.01, seed=3)
            runs = MultiTierAdvisor(
                HybridMemorySystem.testbed(), REDIS_PROFILE,
                PRICES[:2], client,
            ).measure(trace).runs
            baselines = Mnemo(client=client).profile(trace).baselines
            assert runs == (baselines.fast, baselines.slow)

    @pytest.mark.parametrize("engine", ["redis", "memcached", "dynamodb"])
    @pytest.mark.parametrize(
        "system", [HybridMemorySystem.dram_nvm_far, HybridMemorySystem.testbed],
        ids=["dram_nvm_far", "paper_two_tier"],
    )
    def test_noisy_run_matches_the_access_timer_loop(self, mixed_trace,
                                                     engine, system):
        system = system()
        profile = profile_for(engine)
        client = YCSBClient(repeats=3, noise_sigma=0.01, seed=11,
                            percentiles=())
        kernel = BatchKernel(client, mixed_trace, profile, system)
        rng = np.random.default_rng(5)
        for _ in range(2):
            placement = rng.integers(
                0, len(system.nodes), mixed_trace.n_keys
            ).astype(TIER_DTYPE)
            got = kernel.run(placement)
            want = access_timer_execute(
                client, mixed_trace, system, profile, placement,
                kernel.fingerprint(placement),
            )
            # two means of three runs each: within 4.5 sds of their
            # difference (the closed form draws totals, not requests)
            tol = 4.5 * want["run_sd"] * np.sqrt(2 / client.repeats)
            assert abs(got.runtime_ns - want["runtime_ns"]) <= tol
            assert abs(got.avg_read_ns - want["avg_read_ns"]) \
                * got.n_reads <= tol
            assert abs(got.avg_write_ns - want["avg_write_ns"]) \
                * got.n_writes <= tol
            for std in (got.runtime_std_ns, want["runtime_std_ns"]):
                assert 0.0 < std < 4.5 * want["run_sd"]


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
