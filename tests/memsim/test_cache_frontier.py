"""The frontier pass at its edges: worst cases, occurrences, AET truth.

``tests/property/test_prop_kernel.py`` checks the pass differentially on
random traces; this file pins the shapes the deleted vectorizers got
wrong (a cyclic scan one record over capacity cost 355 ms / 360 MB), the
degenerate sizes of everything, the occurrence helper against the pair
of functions it replaced, and the analytic eviction age against the
exact frontier.  Memory, not wall time, is what tier-1 can assert
without flaking: the worst cases must stay under 400 bytes of scratch
per request.
"""

import tracemalloc

import numpy as np
import pytest

import repro.memsim.cache as cache_mod
from repro.memsim import LLCModel
from repro.memsim.analytic import reuse_time_eviction_age
from repro.memsim.cache import _occurrences, lru_hit_mask
from repro.units import MB
from repro.ycsb import TABLE_III_WORKLOADS, generate_trace
from repro.ycsb.distributions import DistributionSpec
from repro.ycsb.presets import EXTRA_WORKLOADS, workload_by_name
from repro.ycsb.sizes import SizeModel
from repro.ycsb.workload import WorkloadSpec

#: tracemalloc ceiling for one pass, in bytes per request (measured
#: 80-100 on the traces below).
SCRATCH_PER_REQUEST = 400


def assert_equals_loop(keys, sizes, capacity):
    """`process` and `lru_hit_mask` against the `access` loop, in full."""
    ref = LLCModel(capacity_bytes=capacity)
    want = np.array(
        [ref.access(k, s) for k, s in zip(keys.tolist(), sizes.tolist())],
        dtype=bool,
    )
    model = LLCModel(capacity_bytes=capacity)
    got = model.process(keys, sizes)
    assert np.array_equal(got, want)
    assert (model.hits, model.misses, model.used_bytes) == (
        ref.hits, ref.misses, ref.used_bytes,
    )
    assert list(model._entries.items()) == list(ref._entries.items())
    mask, times, frontier = lru_hit_mask(keys, sizes, capacity)
    assert np.array_equal(mask, want)
    return want, times, frontier


def pass_peak_bytes(keys, sizes, capacity):
    tracemalloc.start()
    try:
        lru_hit_mask(keys, sizes, capacity)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorstCases:
    N = 100_000

    @pytest.mark.parametrize("mixed", [False, True], ids=["fixed", "mixed"])
    def test_cyclic_scan_one_record_over_capacity(self, mixed):
        # every repeat finds its record evicted one request earlier: each
        # lands inside its chunk's frontier advance, none is decided by
        # the boundary values alone
        records = 1_001
        keys = np.arange(self.N) % records
        rng = np.random.default_rng(0)
        per_key = (
            rng.integers(50, 150, records) if mixed
            else np.full(records, 100)
        )
        capacity = int(per_key.sum() - per_key.min())
        mask, _, _ = assert_equals_loop(keys, per_key[keys], capacity)
        assert not mask.any()
        peak = pass_peak_bytes(keys, per_key[keys], capacity)
        assert peak <= SCRATCH_PER_REQUEST * self.N

    def test_capacity_just_under_the_working_set(self):
        # the frontier trails the present by most of the trace, so the
        # band is the whole table: the grid must widen to keep it O(n)
        rng = np.random.default_rng(1)
        keys = rng.integers(0, 20_000, self.N)
        per_key = rng.integers(50, 2_000, 20_000)
        sizes = per_key[keys]
        working_set = int(per_key[np.unique(keys)].sum())
        capacity = working_set * 98 // 100
        _, times, frontier = assert_equals_loop(keys, sizes, capacity)
        assert times[0] + 1 > cache_mod._GRID
        assert frontier[-1] > 0
        peak = pass_peak_bytes(keys, sizes, capacity)
        assert peak <= SCRATCH_PER_REQUEST * self.N

    def test_capacity_exactly_the_working_set(self):
        rng = np.random.default_rng(1)
        keys = rng.integers(0, 20_000, self.N)
        per_key = rng.integers(50, 2_000, 20_000)
        sizes = per_key[keys]
        working_set = int(per_key[np.unique(keys)].sum())
        mask, times, frontier = assert_equals_loop(keys, sizes, working_set)
        # nothing is ever evicted: one boundary, every repeat hits
        assert (times.tolist(), frontier.tolist()) == ([self.N - 1], [0])
        assert mask.sum() == self.N - np.unique(keys).size


class TestDegenerateShapes:
    @pytest.mark.parametrize(
        "n", [1, 2, cache_mod._GRID - 1, cache_mod._GRID,
              cache_mod._GRID + 1, 2 * cache_mod._GRID + 1],
    )
    def test_lengths_around_the_grid(self, n):
        rng = np.random.default_rng(n)
        keys = rng.integers(0, 6, n)
        per_key = rng.integers(1, 30, 6)
        for capacity in (1, 20, 45, 10_000):
            assert_equals_loop(keys, per_key[keys], capacity)

    def test_one_key(self):
        keys = np.zeros(200, dtype=np.int64)
        mask, _, _ = assert_equals_loop(keys, np.full(200, 10), 10)
        assert mask[1:].all() and not mask[0]
        mask, _, _ = assert_equals_loop(keys, np.full(200, 10), 9)
        assert not mask.any()

    def test_all_distinct_keys(self):
        keys = np.arange(500)
        sizes = np.random.default_rng(2).integers(1, 50, 500)
        for capacity in (1, 100, 100_000):
            mask, _, _ = assert_equals_loop(keys, sizes, capacity)
            assert not mask.any()

    def test_every_record_larger_than_the_cache(self):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 20, 300)
        per_key = rng.integers(101, 500, 20)
        mask, _, frontier = assert_equals_loop(keys, per_key[keys], 100)
        assert not mask.any() and frontier[-1] == 0

    def test_capacity_below_the_smallest_record(self):
        rng = np.random.default_rng(4)
        keys = rng.integers(0, 20, 300)
        per_key = rng.integers(5, 50, 20)
        mask, _, _ = assert_equals_loop(keys, per_key[keys], 4)
        assert not mask.any()

    def test_oversized_records_displace_nothing(self):
        # a bypassed record between two touches must not age the cache
        keys = np.array([1, 2, 9, 1, 9, 2, 3, 1])
        sizes = np.array([40, 40, 500, 40, 500, 40, 40, 40])
        mask, _, _ = assert_equals_loop(keys, sizes, 80)
        assert mask.tolist() == [
            False, False, False, True, False, True, False, False,
        ]


def _old_pair(keys):
    """`_previous_occurrence` + `_next_occurrence` as they were."""
    n = keys.size
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    prev_sorted = np.full(n, -1, dtype=np.int64)
    same = sorted_keys[1:] == sorted_keys[:-1]
    prev_sorted[1:][same] = order[:-1][same]
    prev = np.empty(n, dtype=np.int64)
    prev[order] = prev_sorted
    nxt = np.full(n, n, dtype=np.int64)
    rep = np.nonzero(prev >= 0)[0]
    nxt[prev[rep]] = rep
    return prev, nxt


class TestOccurrences:
    def assert_same(self, keys):
        got = _occurrences(keys)
        for mine, theirs in zip(got, _old_pair(keys)):
            assert mine.dtype == theirs.dtype == np.int64
            assert np.array_equal(mine, theirs)

    @pytest.mark.parametrize(
        "spec", (*TABLE_III_WORKLOADS, *EXTRA_WORKLOADS),
        ids=lambda spec: spec.name,
    )
    def test_presets(self, spec):
        trace = generate_trace(spec.scaled(n_requests=20_000).with_seed(5))
        self.assert_same(np.ascontiguousarray(trace.keys))

    @pytest.mark.parametrize("keys", [
        np.array([], dtype=np.int64),
        np.array([7]),
        np.array([-3, 5, -3, -9, 5, -3]),
        np.array([0, 2**62, -(2**62), 2**62, 0]),  # range too wide to pack
        np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max] * 3),
        np.array([2**63 + 5, 1, 2**63 + 5, 1], dtype=np.uint64),
        np.array([200, 7, 200, 255, 7, 0], dtype=np.uint8),
        np.array([-128, 127, -128, 0, 127], dtype=np.int8),
        np.array([1.5, 0.5, 1.5, 0.5]),
    ], ids=["empty", "single", "negative", "sparse", "int64-extremes",
            "uint64", "uint8", "int8", "float"])
    def test_awkward_keys(self, keys):
        self.assert_same(keys)

    def test_random_keys(self):
        rng = np.random.default_rng(6)
        for n in (2, 3, 33, 1_000):
            self.assert_same(rng.integers(-50, 50, n))


def evicting_llc_specs():
    """The five `profile_llc` benchmark specs whose working set overflows."""
    constant = WorkloadSpec(
        name="constant_10k",
        distribution=DistributionSpec(name="scrambled_zipfian"),
        read_fraction=0.9,
        size_model=SizeModel(
            name="constant_10k", median_bytes=10_240, sigma=0.0,
        ),
        n_keys=20_000,
    )
    return [
        workload_by_name("trending_preview"),
        workload_by_name("edit_thumbnail"),
        workload_by_name("write_burst").scaled(n_keys=50_000),
        workload_by_name("uniform_cache").scaled(n_keys=50_000),
        constant,
    ]


class TestFrontierIsAetGroundTruth:
    @pytest.mark.parametrize(
        "spec", evicting_llc_specs(), ids=lambda spec: spec.name,
    )
    def test_analytic_eviction_age_within_two_percent(self, spec):
        # the AET model's T is an average eviction age; the frontier
        # gives the exact one at every boundary where the cache is full
        trace = generate_trace(spec.with_seed(7))
        keys = np.ascontiguousarray(trace.keys)
        sizes = trace.record_sizes[keys]
        _, times, frontier = lru_hit_mask(keys, sizes, 12 * MB)
        full = frontier > 0
        assert full.sum() > 100
        exact = float(np.mean(times[full] - frontier[full] + 1))
        model = reuse_time_eviction_age(keys, sizes, 12 * MB)
        assert model == pytest.approx(exact, rel=0.02)
