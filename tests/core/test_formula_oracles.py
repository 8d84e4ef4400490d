"""MnemoT's order, its budgeted fill and the per-key count, against
the expressions each caller used to write out for itself.

Every ``oracle_*`` below is one of those expressions, kept verbatim as
the reference: the callers now read ``weight_order`` / ``budget_mask``
(``repro.core.pattern``) and ``Trace.access_counts``, and must produce
exactly what their own spelling produced.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.analysis.cdf import coverage_fraction, key_space_cdf
from repro.baselines.instrumented import InstrumentedProfiler
from repro.baselines.knapsack import greedy_knapsack
from repro.core.drift import analyze_drift, window_counts
from repro.core.dynamic import simulate_periodic_retiering
from repro.core.pattern import PatternEngine, budget_mask, weight_order
from repro.errors import EstimateError
from repro.guard.drift import DriftDetector
from repro.kvstore.profiles import REDIS_PROFILE, builtin_profiles
from repro.kvstore.redislike import RedisLike
from repro.memsim.analytic import predict_baselines
from repro.memsim.kernel import BatchKernel
from repro.memsim.system import HybridMemorySystem
from repro.multitier import MultiTierAdvisor
from repro.ycsb.client import YCSBClient
from repro.ycsb.generator import generate_trace
from repro.ycsb.presets import TABLE_III_WORKLOADS
from repro.ycsb.sampling import distribution_distance, downsample
from repro.ycsb.workload import Trace


def oracle_counts(trace):
    return np.bincount(trace.keys, minlength=trace.n_keys)


def oracle_order(counts, sizes):
    return np.argsort(-(counts / sizes), kind="stable")


def oracle_mask(counts, sizes, budget):
    order = np.argsort(-(counts / sizes), kind="stable")
    csum = np.cumsum(sizes[order])
    n_fit = int(np.searchsorted(csum, budget, side="right"))
    mask = np.zeros(sizes.size, dtype=bool)
    mask[order[:n_fit]] = True
    return mask


@pytest.fixture(scope="module", params=[s.name for s in TABLE_III_WORKLOADS])
def trace(request):
    (spec,) = [s for s in TABLE_III_WORKLOADS if s.name == request.param]
    return downsample(generate_trace(spec), 10, seed=3)


class TestOrderAndFill:
    counts = st.lists(st.integers(0, 4), min_size=1, max_size=60)

    @given(data=st.data(), counts=counts)
    @settings(max_examples=200, deadline=None)
    def test_weight_order_and_budget_mask(self, data, counts):
        counts = np.array(counts, dtype=np.int64)
        # few distinct sizes and counts: weight ties across keys are common
        sizes = np.array(
            data.draw(st.lists(st.sampled_from([50, 100, 200, 400]),
                               min_size=counts.size, max_size=counts.size)),
            dtype=np.int64,
        )
        budget = data.draw(st.integers(0, int(sizes.sum()) + 1))
        order = weight_order(counts, sizes)
        assert order.dtype == np.int64
        assert np.array_equal(order, oracle_order(counts, sizes))
        assert np.array_equal(
            budget_mask(counts, sizes, budget),
            oracle_mask(counts, sizes, budget),
        )


class TestCounts:
    def test_access_counts(self, trace):
        counts = trace.access_counts()
        assert counts.dtype == oracle_counts(trace).dtype
        assert np.array_equal(counts, oracle_counts(trace))

    def test_hot_order(self, trace):
        order, cum_bytes = trace.hot_order
        expect = np.argsort(-oracle_counts(trace), kind="stable")
        assert np.array_equal(order, expect)
        assert np.array_equal(cum_bytes,
                              np.cumsum(trace.record_sizes[expect]))

    @given(keys=st.lists(st.integers(0, 40), min_size=1, max_size=400),
           untouched=st.integers(0, 30))
    @settings(max_examples=200, deadline=None)
    def test_hot_order_under_heavy_ties(self, keys, untouched):
        # a few counts over many keys, untouched ones all tied at 0
        n_keys = max(keys) + 1 + untouched
        trace = Trace("ties", np.array(keys, dtype=np.int64),
                      np.zeros(len(keys), dtype=bool),
                      np.arange(1, n_keys + 1, dtype=np.int64))
        order, cum_bytes = trace.hot_order
        expect = np.argsort(-oracle_counts(trace), kind="stable")
        assert order.dtype == expect.dtype
        assert np.array_equal(order, expect)
        assert np.array_equal(cum_bytes,
                              np.cumsum(trace.record_sizes[expect]))

    def test_key_space_cdf_and_coverage(self, trace):
        counts = oracle_counts(trace)
        keys, cum = key_space_cdf(trace)
        assert np.array_equal(keys, np.arange(trace.n_keys))
        assert np.array_equal(cum, np.cumsum(counts) / trace.n_requests)
        for share in (0.5, 0.9, 1.0):
            hot = np.cumsum(np.sort(counts)[::-1]) / trace.n_requests
            n_hot = int(np.searchsorted(hot, share, side="left")) + 1
            assert coverage_fraction(trace, share) == n_hot / trace.n_keys

    def test_distribution_distance(self, trace):
        other = downsample(trace, 4, seed=5)
        ca = np.cumsum(oracle_counts(trace) / trace.n_requests)
        cb = np.cumsum(oracle_counts(other) / other.n_requests)
        assert distribution_distance(trace, other) == float(
            np.abs(ca - cb).max()
        )

    def test_drift_detector_reference_mass(self, trace):
        detector = DriftDetector(trace)
        expect = oracle_counts(trace).astype(np.float64)
        assert np.array_equal(detector._ref_mass, expect)


class TestWeightOrderCallers:
    def test_pattern_engine(self, trace):
        pattern = PatternEngine("weight").analyze(trace)
        reads, writes = trace.per_key_counts()
        expect = np.argsort(-((reads + writes) / trace.record_sizes),
                            kind="stable").astype(np.int64)
        assert pattern.order.dtype == np.int64
        assert np.array_equal(pattern.order, expect)

    def test_instrumented_profiler_pattern(self, trace):
        profiler = InstrumentedProfiler(
            RedisLike, client=YCSBClient(repeats=1, noise_sigma=0.0)
        )
        pattern = profiler.profile(trace).pattern
        reads, writes = trace.per_key_counts()
        weights = (reads + writes) / trace.record_sizes
        assert pattern.mode == "weight"
        assert pattern.order.dtype == np.int64
        assert np.array_equal(
            pattern.order, np.argsort(-weights, kind="stable")
        )
        for got, want in ((pattern.reads_per_key, reads),
                          (pattern.writes_per_key, writes)):
            assert got.dtype == np.int64 and np.array_equal(got, want)
        assert pattern.sizes is trace.record_sizes

    def test_greedy_knapsack(self, trace):
        values = oracle_counts(trace).astype(np.float64)
        sizes = trace.record_sizes
        for frac in (0.05, 0.3, 0.9):
            capacity = int(frac * sizes.sum())
            order = np.argsort(-(values / sizes), kind="stable")
            csum = np.cumsum(sizes[order])
            prefix = int(np.searchsorted(csum, capacity, side="right"))
            chosen = list(order[:prefix].tolist())
            used = int(csum[prefix - 1]) if prefix else 0
            for idx in order[prefix:]:
                if used + int(sizes[idx]) <= capacity:
                    chosen.append(int(idx))
                    used += int(sizes[idx])
            assert np.array_equal(greedy_knapsack(values, sizes, capacity),
                                  np.array(sorted(chosen), dtype=np.int64))

    def test_waterfall_assignment(self, trace):
        advisor = MultiTierAdvisor(HybridMemorySystem.dram_nvm_far(),
                                   REDIS_PROFILE, (1.0, 0.2, 0.08))
        total = int(trace.record_sizes.sum())
        for caps in ([total // 4, total // 4, None],
                     [total // 10, total // 2, None],
                     [1, 1, 1]):
            try:
                got = advisor.waterfall_assignment(trace, caps)
            except EstimateError:
                got = None
            assert _equal_or_none(got, oracle_waterfall(trace, caps))

    def test_waterfall_assignment_edges(self, trace):
        advisor = MultiTierAdvisor(HybridMemorySystem.dram_nvm_far(),
                                   REDIS_PROFILE, (1.0, 0.2, 0.08))
        sizes = trace.record_sizes
        hottest = int(sizes[weight_order(trace.access_counts(), sizes)[0]])
        total = int(sizes.sum())
        # tier 1 receives no key; the hottest key is larger than all of
        # tier 0, which then receives none either
        for caps in ([total // 4, 0, None], [hottest - 1, total // 2, None]):
            got = advisor.waterfall_assignment(trace, caps)
            assert np.bincount(got, minlength=3).min() == 0
            assert _equal_or_none(got, oracle_waterfall(trace, caps))

    def test_analyze_drift(self, trace):
        for capacity in (0.05, 0.2, 0.6):
            report = analyze_drift(trace, capacity_fraction=capacity)
            drift, static, oracle = oracle_drift(trace, capacity, 10)
            assert report.drift == drift
            assert report.regret.static_hit_fraction == static
            assert report.regret.oracle_hit_fraction == oracle

    def test_simulate_periodic_retiering(self, trace):
        system = HybridMemorySystem.testbed()
        baselines = predict_baselines(
            trace, REDIS_PROFILE, system, YCSBClient(repeats=1)
        )
        for capacity in (0.05, 0.2, 0.6):
            out = simulate_periodic_retiering(
                trace, baselines, capacity_fraction=capacity
            )
            assert (out.static_runtime_ns, out.dynamic_runtime_ns,
                    out.migration_ns, out.migrated_bytes) == oracle_retiering(
                trace, baselines, capacity, 10, 1.81
            )


def _equal_or_none(got, want):
    if got is None or want is None:
        return got is None and want is None
    return got.dtype == want.dtype and np.array_equal(got, want)


def oracle_waterfall(trace, capacities):
    counts = np.bincount(trace.keys, minlength=trace.n_keys)
    order = np.argsort(-(counts / trace.record_sizes), kind="stable")
    assignment = np.full(trace.n_keys, -1, dtype=np.int64)
    sizes = trace.record_sizes
    tier = used = 0
    for key in order:
        size = int(sizes[key])
        while tier < len(capacities) - 1:
            cap = capacities[tier]
            if cap is None or used + size <= cap:
                break
            tier += 1
            used = 0
        cap = capacities[tier]
        if cap is not None and used + size > cap:
            return None
        assignment[key] = tier
        used += size
    return assignment


def oracle_drift(trace, capacity_fraction, n_windows):
    counts = window_counts(trace, n_windows)
    probs = counts / counts.sum(axis=1, keepdims=True)
    overlaps = np.minimum(probs[:-1], probs[1:]).sum(axis=1)
    drift = float(1.0 - overlaps.mean())
    sizes = trace.record_sizes
    budget = int(capacity_fraction * sizes.sum())
    global_counts = counts.sum(axis=0)
    static_mask = oracle_mask(global_counts, sizes, budget)
    static_hits = int(global_counts[static_mask].sum())
    oracle_hits = sum(
        max(int(c[oracle_mask(c, sizes, budget)].sum()),
            int(c[static_mask].sum()))
        for c in counts
    )
    return (drift, static_hits / trace.n_requests,
            oracle_hits / trace.n_requests)


def oracle_retiering(trace, baselines, capacity_fraction, n_windows, bw):
    sizes = trace.record_sizes
    budget = int(capacity_fraction * sizes.sum())
    read_frac = trace.read_fraction
    counts = window_counts(trace, n_windows)

    def window_savings(mask, window):
        return float(window[mask].sum()) * (
            read_frac * baselines.read_delta_ns
            + (1 - read_frac) * baselines.write_delta_ns
        )

    static_mask = oracle_mask(counts.sum(axis=0), sizes, budget)
    static_savings = sum(window_savings(static_mask, w) for w in counts)
    dynamic_savings = 0.0
    migrated = 0
    prev = np.zeros(sizes.size, dtype=bool)
    for w in counts:
        mask = oracle_mask(w, sizes, budget)
        dynamic_savings += window_savings(mask, w)
        migrated += int(sizes[mask & ~prev].sum())
        prev = mask
    migration_ns = migrated / bw
    return (
        float(baselines.slow_runtime_ns - static_savings),
        float(baselines.slow_runtime_ns - dynamic_savings + migration_ns),
        float(migration_ns),
        migrated,
    )


@pytest.mark.parametrize("engine", sorted(builtin_profiles()))
@pytest.mark.parametrize("concurrency", [1, 4])
@pytest.mark.parametrize("use_llc", [False, True])
def test_predict_placement(trace, engine, concurrency, use_llc):
    """A prediction is the measurement at sigma 0, bit for bit: with the
    LLC off, and with it on over a capacity the whole trace fits in —
    the reuse-time eviction age is then infinite, so the predicted mask
    is the exact one (every re-reference hits)."""
    profile = builtin_profiles()[engine]
    system = HybridMemorySystem.testbed(llc_bytes=trace.dataset_bytes)
    client = YCSBClient(
        noise_sigma=0.0, concurrency=concurrency, use_llc=use_llc,
    )
    rng = np.random.default_rng(4)
    masks = [np.ones(trace.n_keys, dtype=bool),
             np.zeros(trace.n_keys, dtype=bool),
             rng.random(trace.n_keys) < 0.3]
    measured = client.execute_placements(trace, masks, profile, system)
    kernel = BatchKernel(client, trace, profile, system, analytic=True)
    assert kernel.run_all(masks) == measured
    baselines = predict_baselines(trace, profile, system, client)
    assert [baselines.fast, baselines.slow] == measured[:2]
    assert all(result.runtime_std_ns == 0.0 for result in measured)
