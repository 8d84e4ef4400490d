"""Tests for the WorkloadDescriptor name: the descriptor is the trace.

A trace's dataset bytes and its CSV loading are checked in
``tests/ycsb/test_workload.py`` and ``tests/ycsb/test_trace_io.py``.
"""

import dataclasses

from repro.core import WorkloadDescriptor


class TestFromTrace:
    def test_from_trace_is_the_trace(self, small_trace):
        assert WorkloadDescriptor.from_trace(small_trace) is small_trace
        assert not dataclasses.is_dataclass(WorkloadDescriptor)
        assert not hasattr(WorkloadDescriptor, "to_trace")
        assert not hasattr(WorkloadDescriptor, "from_csv")
