"""Tests for WorkloadSpec and Trace."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import ConfigurationError, WorkloadError
from repro.ycsb.distributions import DistributionSpec
from repro.ycsb.sizes import THUMBNAIL
from repro.ycsb.workload import Trace, WorkloadSpec


def make_trace(keys, is_read=None, sizes=None, n_keys=None):
    keys = np.asarray(keys, dtype=np.int64)
    if is_read is None:
        is_read = np.ones(keys.size, dtype=bool)
    if sizes is None:
        n = n_keys if n_keys is not None else (int(keys.max()) + 1 if keys.size else 1)
        sizes = np.full(n, 100, dtype=np.int64)
    return Trace(name="t", keys=keys, is_read=np.asarray(is_read, dtype=bool),
                 record_sizes=np.asarray(sizes, dtype=np.int64))


class TestWorkloadSpec:
    def _spec(self, **kw):
        defaults = dict(
            name="w",
            distribution=DistributionSpec(name="uniform"),
            read_fraction=1.0,
            size_model=THUMBNAIL,
        )
        defaults.update(kw)
        return WorkloadSpec(**defaults)

    def test_paper_default_scale(self):
        s = self._spec()
        assert s.n_keys == 10_000
        assert s.n_requests == 100_000

    def test_read_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            self._spec(read_fraction=1.5)

    def test_scale_validation(self):
        with pytest.raises(ConfigurationError):
            self._spec(n_keys=0)

    def test_scaled_copy(self):
        s = self._spec().scaled(n_keys=50, n_requests=500)
        assert (s.n_keys, s.n_requests) == (50, 500)
        assert s.name == "w" and s.seed == self._spec().seed

    def test_scaled_partial(self):
        s = self._spec().scaled(n_requests=500)
        assert s.n_keys == 10_000 and s.n_requests == 500

    def test_with_seed(self):
        assert self._spec().with_seed(99).seed == 99


class TestTraceValidation:
    def test_key_out_of_range_rejected(self):
        with pytest.raises(WorkloadError):
            make_trace([0, 5], n_keys=3)

    def test_misaligned_ops_rejected(self):
        with pytest.raises(WorkloadError):
            make_trace([0, 1], is_read=[True])

    def test_nonpositive_sizes_rejected(self):
        with pytest.raises(WorkloadError):
            make_trace([0], sizes=[0])

    def test_empty_dataset_rejected(self):
        with pytest.raises(WorkloadError):
            make_trace([], sizes=np.array([], dtype=np.int64))


class TestTraceViews:
    def test_counts(self):
        t = make_trace([0, 1, 0, 2], is_read=[True, True, False, False])
        assert t.n_requests == 4
        assert t.n_reads == 2
        assert t.n_writes == 2
        assert t.read_fraction == 0.5

    def test_per_key_counts(self):
        t = make_trace([0, 1, 0, 2], is_read=[True, True, False, False])
        reads, writes = t.per_key_counts()
        assert reads.tolist() == [1, 1, 0]
        assert writes.tolist() == [1, 0, 1]

    def test_request_sizes_gather(self):
        t = make_trace([0, 2, 2], sizes=[10, 20, 30])
        assert t.request_sizes.tolist() == [10, 30, 30]

    def test_dataset_bytes(self):
        t = make_trace([0], sizes=[10, 20, 30])
        assert t.dataset_bytes == 60

    def test_touched_keys(self):
        t = make_trace([2, 0, 2], n_keys=5)
        assert t.touched_keys().tolist() == [0, 2]


class TestFirstTouchOrder:
    def test_order_of_first_access(self):
        t = make_trace([3, 1, 3, 0, 1], n_keys=5)
        order = t.first_touch_order()
        assert order[:3].tolist() == [3, 1, 0]

    def test_untouched_appended_by_id(self):
        t = make_trace([3, 1], n_keys=5)
        order = t.first_touch_order()
        assert order.tolist() == [3, 1, 0, 2, 4]

    def test_is_permutation(self):
        rng = np.random.default_rng(0)
        t = make_trace(rng.integers(0, 50, 500), n_keys=50)
        order = t.first_touch_order()
        assert np.array_equal(np.sort(order), np.arange(50))

    @staticmethod
    def reference(trace):
        """The sort-based formulation `first_touch_order` replaced."""
        _, first_pos = np.unique(trace.keys, return_index=True)
        touched = trace.keys[np.sort(first_pos)]
        untouched = np.setdiff1d(
            np.arange(trace.n_keys, dtype=trace.keys.dtype), touched,
        )
        return np.concatenate([touched, untouched])

    @given(
        n_keys=st.integers(1, 40),
        keys=st.lists(st.integers(0, 39), max_size=200),
        shape=st.sampled_from(["any", "one_key", "all_touched"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_sort_based_reference(self, n_keys, keys, shape):
        keys = np.asarray(keys, dtype=np.int64) % n_keys
        if shape == "one_key":  # all untouched but one
            keys = np.full(keys.size + 1, keys[:1].sum(), dtype=np.int64)
        elif shape == "all_touched":  # no untouched keys
            keys = np.concatenate([keys, np.arange(n_keys)[::-1]])
        t = make_trace(keys, n_keys=n_keys)
        order = t.first_touch_order()
        expect = self.reference(t)
        assert np.array_equal(order, expect)
        assert order.dtype == expect.dtype
