"""Property-based tests for the vectorized LRU frontier pass.

`lru_hit_mask` claims exact equivalence with a sequential byte-capped
LRU for per-key-constant sizes — the eviction-frontier argument from
:mod:`repro.memsim.cache`.  These tests check that claim differentially
against the textbook reference across random key/size/capacity draws:
hit mask, hit/miss counters, residency order and ``used_bytes``.  The
strategy is wide enough (lengths to 2 000, up to 200 keys, a shrunken
chunk grid, capacities from below the smallest record to above the
working set) that hypothesis reaches every branch of the pass: the fit
return, span doubling, a grid wider than the minimum, a frontier still
at 0 at some boundaries, and undecided requests whose previous access
sits inside the chunk, before it, and on a grid point.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

import repro.memsim.cache as cache_mod
from repro.memsim import LLCModel
from repro.memsim.cache import lru_hit_mask


@st.composite
def keyed_traces(draw):
    """(keys, per-request sizes, capacity) with per-key-constant sizes."""
    n_keys = draw(st.integers(min_value=1, max_value=200))
    length = draw(st.integers(min_value=1, max_value=2_000))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    shape = draw(st.sampled_from(["uniform", "skewed", "cyclic", "bursty"]))
    if shape == "uniform":
        keys = rng.integers(0, n_keys, length)
    elif shape == "skewed":
        keys = (rng.zipf(1.3, length) - 1) % n_keys
    elif shape == "cyclic":
        keys = np.arange(length) % n_keys
    else:  # runs of re-references with jumps between them
        keys = (rng.geometric(0.1, length).cumsum() // 7) % n_keys
    largest = draw(st.sampled_from([1, 40, 400]))
    by_key = rng.integers(1, largest + 1, n_keys)
    sizes = by_key[keys]
    working_set = int(by_key[np.unique(keys)].sum())
    smallest = int(by_key.min())
    capacity = draw(st.one_of(
        st.integers(1, max(1, working_set - 1)),
        st.sampled_from([
            max(1, smallest - 1), smallest,  # (almost) nothing fits
            max(1, working_set // 50), max(1, working_set // 10),
            max(1, working_set // 3), max(1, working_set * 49 // 50),
            max(1, working_set - 1), working_set, working_set + 10,
        ]),
    ))
    return keys.astype(np.int64), sizes.astype(np.int64), capacity


def sequential_reference(keys, sizes, capacity):
    """Hit mask + final state from a dict-based byte-capped LRU."""
    entries = {}  # key -> size, insertion order = LRU order
    used = 0
    hits = np.zeros(keys.size, dtype=bool)
    for i, (k, s) in enumerate(zip(keys.tolist(), sizes.tolist())):
        if k in entries:
            entries[k] = entries.pop(k)  # move to MRU
            hits[i] = True
            continue
        if s > capacity:
            continue
        entries[k] = s
        used += s
        while used > capacity:
            used -= entries.pop(next(iter(entries)))
    return hits, entries


def with_grid(grid, fn):
    """Run *fn* with the pass's minimum chunk length set to *grid*.

    Patched inline: hypothesis forbids function-scoped fixtures.  A
    small grid puts many chunk boundaries inside a 2 000-request trace,
    which is what exercises the band table and the residue.
    """
    original = cache_mod._GRID
    cache_mod._GRID = grid
    try:
        return fn()
    finally:
        cache_mod._GRID = original


class TestFrontierMask:
    @given(trace=keyed_traces(), grid=st.sampled_from([2, 4, 8, 32]))
    @settings(max_examples=300, deadline=None)
    def test_mask_matches_sequential_lru(self, trace, grid):
        keys, sizes, capacity = trace
        expect, entries = sequential_reference(keys, sizes, capacity)
        got, times, frontier = with_grid(
            grid, lambda: lru_hit_mask(keys, sizes, capacity)
        )
        assert np.array_equal(got, expect)
        # the last boundary is the end state: everything last touched
        # at or after frontier[-1] that fits is resident, nothing else
        assert times[-1] == keys.size - 1
        last_touch = {k: i for i, k in enumerate(keys.tolist())}
        resident = {
            k for k, i in last_touch.items()
            if i >= frontier[-1] and sizes[i] <= capacity
        }
        assert resident == set(entries)


class TestModelProcess:
    @given(trace=keyed_traces(), grid=st.sampled_from([2, 4, 8, 32]))
    @settings(max_examples=300, deadline=None)
    def test_process_matches_sequential_lru(self, trace, grid):
        keys, sizes, capacity = trace
        expect_hits, expect_entries = sequential_reference(
            keys, sizes, capacity
        )
        model = LLCModel(capacity_bytes=capacity)
        got = with_grid(grid, lambda: model.process(keys, sizes))
        assert np.array_equal(got, expect_hits)
        assert model.hits == int(expect_hits.sum())
        assert model.misses == keys.size - model.hits
        assert model.used_bytes == sum(expect_entries.values())
        # residency must match in LRU order, not just as a set
        assert list(model._entries.items()) == list(expect_entries.items())
