"""Tests for the LLC LRU model."""

import numpy as np
import pytest

import repro.memsim.cache as cache_mod
from repro.errors import ConfigurationError
from repro.memsim import LLCModel
from repro.memsim.cache import lru_hit_mask


class TestConstruction:
    def test_defaults(self):
        llc = LLCModel()
        assert llc.capacity_bytes == 12_000_000

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            LLCModel(capacity_bytes=0)

    def test_invalid_hit_latency(self):
        with pytest.raises(ConfigurationError):
            LLCModel(hit_latency_ns=-1)


class TestAccess:
    def test_first_access_misses(self):
        llc = LLCModel(capacity_bytes=1000)
        assert llc.access(1, 100) is False

    def test_repeat_access_hits(self):
        llc = LLCModel(capacity_bytes=1000)
        llc.access(1, 100)
        assert llc.access(1, 100) is True

    def test_lru_eviction_order(self):
        llc = LLCModel(capacity_bytes=300)
        llc.access(1, 100)
        llc.access(2, 100)
        llc.access(3, 100)
        llc.access(4, 100)  # evicts 1
        assert 1 not in llc
        assert 2 in llc and 3 in llc and 4 in llc

    def test_hit_refreshes_recency(self):
        llc = LLCModel(capacity_bytes=300)
        llc.access(1, 100)
        llc.access(2, 100)
        llc.access(3, 100)
        llc.access(1, 100)  # 1 becomes MRU; 2 is now LRU
        llc.access(4, 100)  # evicts 2
        assert 2 not in llc
        assert 1 in llc

    def test_oversized_record_bypasses(self):
        llc = LLCModel(capacity_bytes=100)
        assert llc.access(1, 200) is False
        assert 1 not in llc
        assert llc.used_bytes == 0

    def test_used_bytes_tracks_sizes(self):
        llc = LLCModel(capacity_bytes=1000)
        llc.access(1, 300)
        llc.access(2, 200)
        assert llc.used_bytes == 500

    def test_eviction_frees_enough(self):
        llc = LLCModel(capacity_bytes=250)
        llc.access(1, 100)
        llc.access(2, 100)
        llc.access(3, 200)  # must evict both
        assert llc.used_bytes == 200
        assert llc.resident_keys == 1

    @pytest.mark.parametrize("size", [0, -5])
    def test_non_positive_size_raises(self, size):
        llc = LLCModel(capacity_bytes=100)
        with pytest.raises(ConfigurationError):
            llc.access(1, size)
        assert llc.used_bytes == 0 and llc.misses == 0


class TestInvalidate:
    def test_invalidate_present(self):
        llc = LLCModel(capacity_bytes=1000)
        llc.access(1, 100)
        assert llc.invalidate(1) is True
        assert llc.used_bytes == 0

    def test_invalidate_absent(self):
        llc = LLCModel(capacity_bytes=1000)
        assert llc.invalidate(9) is False


class TestStats:
    def test_hit_rate(self):
        llc = LLCModel(capacity_bytes=1000)
        llc.access(1, 10)
        llc.access(1, 10)
        llc.access(1, 10)
        llc.access(2, 10)
        assert llc.hit_rate == pytest.approx(0.5)

    def test_hit_rate_empty(self):
        assert LLCModel().hit_rate == 0.0

    def test_reset(self):
        llc = LLCModel(capacity_bytes=1000)
        llc.access(1, 10)
        llc.reset()
        assert llc.hits == llc.misses == 0
        assert llc.used_bytes == 0
        assert 1 not in llc


class TestProcess:
    def test_batch_matches_scalar(self):
        keys = np.array([1, 2, 1, 3, 2, 1])
        sizes = np.array([100, 100, 100, 100, 100, 100])
        batch = LLCModel(capacity_bytes=250).process(keys, sizes)
        scalar_llc = LLCModel(capacity_bytes=250)
        scalar = np.array(
            [scalar_llc.access(int(k), int(s)) for k, s in zip(keys, sizes)]
        )
        assert np.array_equal(batch, scalar)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            LLCModel().process(np.array([1, 2]), np.array([1]))

    @pytest.mark.parametrize("sizes", [
        [-5, 10, -5, 7],  # mixed, one record negative
        [0, 5, 0, 7],     # mixed, one record empty
        [0, 0, 0, 0],     # uniform
        [-3, -3, -3, -3],
    ])
    @pytest.mark.parametrize("warm", [False, True])
    def test_non_positive_sizes_raise_on_every_path(self, sizes, warm):
        # which path validated used to depend on the size mix: a mixed
        # trace installed a -5-byte record and reported used_bytes == 12
        llc = LLCModel(capacity_bytes=100)
        if warm:
            llc.access(9, 10)
        before = (llc.used_bytes, llc.hits, llc.misses)
        with pytest.raises(ConfigurationError):
            llc.process(np.array([1, 2, 1, 3]), np.array(sizes))
        assert (llc.used_bytes, llc.hits, llc.misses) == before

    def test_hot_trace_mostly_hits(self):
        keys = np.zeros(1000, dtype=np.int64)
        sizes = np.full(1000, 100)
        hits = LLCModel(capacity_bytes=1000).process(keys, sizes)
        assert hits[1:].all() and not hits[0]


def _replay(keys, sizes, capacity):
    """Reference run through the sequential exact LRU."""
    llc = LLCModel(capacity_bytes=capacity)
    mask = np.array(
        [llc.access(int(k), int(s)) for k, s in zip(keys, sizes)]
    )
    return llc, mask


class TestEdgeCases:
    def test_oversized_record_bypass_in_batch(self):
        # records larger than the cache always miss and never install
        keys = np.array([1, 1, 2, 1])
        sizes = np.full(4, 500)
        llc = LLCModel(capacity_bytes=100)
        hits = llc.process(keys, sizes)
        assert not hits.any()
        assert llc.used_bytes == 0 and llc.resident_keys == 0
        assert llc.misses == 4

    def test_invalidate_accounting_then_reuse(self):
        llc = LLCModel(capacity_bytes=1000)
        llc.access(1, 400)
        llc.access(2, 300)
        assert llc.invalidate(1) is True
        assert llc.used_bytes == 300
        # the freed space must be reusable without evicting key 2
        assert llc.access(3, 700) is False
        assert 2 in llc and 3 in llc
        assert llc.used_bytes == 1000
        # invalidating twice is a no-op
        assert llc.invalidate(1) is False
        assert llc.used_bytes == 1000

    def test_eviction_accounting_under_reinsertion(self):
        # re-inserting an evicted key repeatedly must not leak bytes
        llc = LLCModel(capacity_bytes=250)
        for _ in range(10):
            llc.access(1, 100)
            llc.access(2, 100)
            llc.access(3, 100)  # evicts 1
        assert llc.used_bytes <= 250
        assert llc.used_bytes == 100 * llc.resident_keys
        assert llc.hits == 0  # every access evicted before its repeat

    def test_resize_on_reinsert_same_key_different_size(self):
        # a hit does not resize (the model tracks whole-record residency),
        # but an insert after invalidation accounts the new size
        llc = LLCModel(capacity_bytes=1000)
        llc.access(1, 400)
        llc.invalidate(1)
        llc.access(1, 200)
        assert llc.used_bytes == 200


class TestVectorizedEquivalence:
    def test_randomized_traces_match_exact_lru(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(1, 3000))
            n_keys = int(rng.integers(1, 250))
            size = int(rng.integers(1, 64))
            capacity = int(rng.integers(1, 800))
            keys = rng.integers(0, n_keys, n)
            sizes = np.full(n, size)
            fast = LLCModel(capacity_bytes=capacity)
            got = fast.process(keys, sizes)
            ref, want = _replay(keys, sizes, capacity)
            assert np.array_equal(got, want)
            assert (fast.hits, fast.misses) == (ref.hits, ref.misses)
            assert fast.used_bytes == ref.used_bytes
            # residency AND recency order must match for future accesses
            assert list(fast._entries.items()) == list(ref._entries.items())

    def test_incremental_access_after_batch_matches(self):
        keys = np.array([0, 1, 2, 0, 3, 1, 4, 2, 0])
        sizes = np.full(keys.size, 100)
        fast = LLCModel(capacity_bytes=300)
        fast.process(keys, sizes)
        ref, _ = _replay(keys, sizes, 300)
        for key in (0, 5, 3, 2):
            assert fast.access(key, 100) == ref.access(key, 100)

    def test_cold_constant_sizes_never_loop(self, monkeypatch):
        # the cold per-key-constant case must not touch access() at all
        def trap(self, key, size):
            raise AssertionError("per-request loop entered")

        rng = np.random.default_rng(5)
        keys = rng.integers(0, 60, 2_000)
        per_key = rng.integers(1, 90, 60)
        ref, want = _replay(keys, per_key[keys], 700)
        monkeypatch.setattr(LLCModel, "access", trap)
        for sizes in (per_key[keys], np.full(keys.size, 25)):
            LLCModel(capacity_bytes=700).process(keys, sizes)
        got = LLCModel(capacity_bytes=700).process(keys, per_key[keys])
        assert np.array_equal(got, want)

    def test_warm_cache_falls_back_and_matches(self, monkeypatch):
        keys = np.array([7, 8, 7, 9])
        sizes = np.full(4, 100)
        fast = LLCModel(capacity_bytes=300)
        fast.access(7, 100)  # warm state: residency depends on history
        monkeypatch.setattr(cache_mod, "_frontier_pass", _trap_pass)
        got = fast.process(keys, sizes)
        ref = LLCModel(capacity_bytes=300)
        ref.access(7, 100)
        want = np.array([ref.access(int(k), 100) for k in keys])
        assert np.array_equal(got, want)
        assert list(fast._entries.items()) == list(ref._entries.items())

    def test_mixed_sizes_fall_back_and_match(self, monkeypatch):
        # a hit does not resize, so with sizes that change per access
        # residency is not a function of recency alone
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 40, 500)
        sizes = rng.integers(1, 50, 500)
        monkeypatch.setattr(cache_mod, "_frontier_pass", _trap_pass)
        fast = LLCModel(capacity_bytes=400)
        got = fast.process(keys, sizes)
        ref, want = _replay(keys, sizes, 400)
        assert np.array_equal(got, want)
        assert list(fast._entries.items()) == list(ref._entries.items())

    def test_huge_byte_totals_fall_back_and_match(self, monkeypatch):
        # the pass sums bytes in float64; past 2**53 only the loop is exact
        keys = np.array([1, 2, 1, 3, 2, 1])
        sizes = np.array([2**60, 5, 2**60, 2**61, 5, 2**60])
        monkeypatch.setattr(cache_mod, "_frontier_pass", _trap_pass)
        got = LLCModel(capacity_bytes=2**60 + 5).process(keys, sizes)
        _, want = _replay(keys, sizes, 2**60 + 5)
        assert np.array_equal(got, want)

    def test_heavy_tail_trace_matches(self):
        # many mid-range reuse distances: the frontier moves in bursts
        rng = np.random.default_rng(9)
        keys = (rng.pareto(1.1, 20_000) * 20).astype(np.int64) % 2_000
        sizes = np.full(keys.size, 10)
        got = LLCModel(capacity_bytes=500).process(keys, sizes)
        _, want = _replay(keys, sizes, 500)
        assert np.array_equal(got, want)


def _trap_pass(*args, **kwargs):
    raise AssertionError("vector pass entered")


class TestHitMaskFunction:
    def test_invalid_size_raises(self):
        for sizes in ([0, 0], [3, -1]):
            with pytest.raises(ConfigurationError):
                lru_hit_mask(np.array([1, 2]), np.array(sizes), 100)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            lru_hit_mask(np.array([1, 2]), np.array([1]), 100)

    def test_non_positive_capacity_raises(self):
        with pytest.raises(ConfigurationError):
            lru_hit_mask(np.array([1, 2]), np.array([1, 1]), 0)

    def test_per_key_varying_sizes_raise(self):
        with pytest.raises(ConfigurationError):
            lru_hit_mask(np.array([1, 2, 1]), np.array([5, 5, 6]), 100)

    def test_empty_trace(self):
        mask, times, frontier = lru_hit_mask(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64), 100,
        )
        assert mask.size == 0 and mask.dtype == bool
        assert times.size == 0 and frontier.size == 0

    def test_zero_slots_all_miss(self):
        mask, _, frontier = lru_hit_mask(
            np.array([1, 1, 1]), np.full(3, 200), 100,
        )
        assert not mask.any()
        assert frontier[-1] == 0  # nothing installed, nothing evicted

    def test_single_slot_exact(self):
        # K = 1: only immediate repeats hit
        keys = np.array([1, 1, 2, 2, 1, 1, 1, 3])
        mask, times, frontier = lru_hit_mask(keys, np.full(8, 100), 100)
        assert mask.tolist() == [
            False, True, False, True, False, True, True, False
        ]
        # one resident record: the frontier sits on the last request
        assert (times[-1], frontier[-1]) == (7, 7)

    def test_frontier_is_monotone_and_describes_residency(self):
        rng = np.random.default_rng(11)
        keys = rng.integers(0, 300, 5_000)
        per_key = rng.integers(10, 200, 300)
        sizes = per_key[keys]
        _, times, frontier = lru_hit_mask(keys, sizes, 4_000)
        assert times[-1] == keys.size - 1
        assert (np.diff(times) > 0).all() and (np.diff(frontier) >= 0).all()
        llc = LLCModel(capacity_bytes=4_000)
        at = dict(zip(times.tolist(), frontier.tolist()))
        last_touch = {}
        for t, (k, s) in enumerate(zip(keys.tolist(), sizes.tolist())):
            llc.access(k, s)
            last_touch[k] = t
            if t in at:
                want = {k for k, seen in last_touch.items() if seen >= at[t]}
                assert set(llc._entries) == want
