"""Tests for the Pattern Engine."""

import numpy as np
import pytest

from repro.core import PatternEngine
from repro.core.pattern import KeyAccessPattern
from repro.errors import ConfigurationError
from repro.ycsb.workload import Trace


class TestModes:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            PatternEngine(mode="random")

    def test_touch_mode_order(self, small_trace):
        pattern = PatternEngine(mode="touch").analyze(small_trace)
        assert np.array_equal(pattern.order, small_trace.first_touch_order())
        assert pattern.mode == "touch"

    def test_weight_mode_orders_by_density(self, small_trace):
        pattern = PatternEngine(mode="weight").analyze(small_trace)
        w = pattern.weights()[pattern.order]
        assert (np.diff(w) <= 1e-12).all()  # non-increasing

    def test_external_mode_requires_order(self, small_trace):
        with pytest.raises(ConfigurationError):
            PatternEngine(mode="external").analyze(small_trace)

    def test_external_order_rejected_in_touch_mode(self, small_trace):
        with pytest.raises(ConfigurationError):
            PatternEngine(mode="touch").analyze(
                small_trace, external_order=np.arange(small_trace.n_keys)
            )

    def test_external_mode_uses_given_order(self, small_trace):
        order = np.arange(small_trace.n_keys)[::-1].copy()
        pattern = PatternEngine(mode="external").analyze(
            small_trace, external_order=order
        )
        assert np.array_equal(pattern.order, order)


class TestPatternContents:
    def test_counts_match_trace(self, small_trace):
        pattern = PatternEngine().analyze(small_trace)
        reads, writes = small_trace.per_key_counts()
        assert np.array_equal(pattern.reads_per_key, reads)
        assert np.array_equal(pattern.writes_per_key, writes)
        assert pattern.accesses_per_key.sum() == small_trace.n_requests

    def test_order_is_permutation(self, small_trace):
        pattern = PatternEngine(mode="weight").analyze(small_trace)
        assert np.array_equal(np.sort(pattern.order),
                              np.arange(small_trace.n_keys))

    def test_ordered_views_align(self, small_trace):
        pattern = PatternEngine(mode="weight").analyze(small_trace)
        k0 = pattern.order[0]
        assert pattern.ordered_reads()[0] == pattern.reads_per_key[k0]
        assert pattern.ordered_sizes()[0] == pattern.sizes[k0]


class TestWeightOrdering:
    def test_hot_keys_first(self):
        """Weight ordering converts any distribution to zipfian-like
        (Section V-A): hot keys lead regardless of key id."""
        keys = np.array([7] * 50 + [2] * 30 + [5] * 5, dtype=np.int64)
        sizes = np.full(10, 1_000, dtype=np.int64)
        trace = Trace(
            name="x", keys=keys, is_read=np.ones(keys.size, bool),
            record_sizes=sizes,
        )
        pattern = PatternEngine(mode="weight").analyze(trace)
        assert pattern.order[:3].tolist() == [7, 2, 5]

    def test_small_keys_advantaged(self):
        """Equal access counts: smaller records get FastMem priority."""
        keys = np.array([0, 1], dtype=np.int64)
        sizes = np.array([100_000, 1_000], dtype=np.int64)
        trace = Trace(
            name="x", keys=keys, is_read=np.ones(2, bool), record_sizes=sizes,
        )
        pattern = PatternEngine(mode="weight").analyze(trace)
        assert pattern.order[0] == 1

    def test_untouched_keys_last(self):
        keys = np.array([1, 1], dtype=np.int64)
        sizes = np.full(3, 1_000, dtype=np.int64)
        trace = Trace(
            name="x", keys=keys, is_read=np.ones(2, bool), record_sizes=sizes,
        )
        pattern = PatternEngine(mode="weight").analyze(trace)
        assert pattern.order[0] == 1
        assert set(pattern.order[1:].tolist()) == {0, 2}


class TestValidation:
    def test_bad_order_rejected(self):
        with pytest.raises(ConfigurationError):
            KeyAccessPattern(
                mode="touch",
                order=np.array([0, 0, 2]),
                reads_per_key=np.zeros(3, dtype=np.int64),
                writes_per_key=np.zeros(3, dtype=np.int64),
                sizes=np.full(3, 10, dtype=np.int64),
            )

    def test_misaligned_arrays_rejected(self):
        with pytest.raises(ConfigurationError):
            KeyAccessPattern(
                mode="touch",
                order=np.arange(3),
                reads_per_key=np.zeros(2, dtype=np.int64),
                writes_per_key=np.zeros(3, dtype=np.int64),
                sizes=np.full(3, 10, dtype=np.int64),
            )
