"""Tests for repro.memsim.node."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.memsim import MemoryNode, NodeKind
from repro.units import GiB


def make_node(**kw):
    defaults = dict(
        name="FastMem", kind=NodeKind.FAST, latency_ns=65.7,
        bandwidth_gbps=14.9, capacity_bytes=4 * GiB,
    )
    defaults.update(kw)
    return MemoryNode(**defaults)


class TestConstruction:
    def test_basic(self):
        node = make_node()
        assert node.capacity_bytes == 4 * GiB
        assert node == make_node()
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.capacity_bytes = 0

    @pytest.mark.parametrize("field,value", [
        ("latency_ns", 0), ("latency_ns", -1),
        ("bandwidth_gbps", 0), ("bandwidth_gbps", -2.0),
        ("capacity_bytes", 0), ("capacity_bytes", -100),
    ])
    def test_invalid_params_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            make_node(**{field: value})


class TestTiming:
    def test_access_time_latency_only(self):
        node = make_node(latency_ns=100.0, bandwidth_gbps=1.0)
        assert node.access_time_ns(0) == pytest.approx(100.0)

    def test_access_time_includes_transfer(self):
        # 1 GB/s == 1 byte/ns, so 1000 bytes adds 1000 ns
        node = make_node(latency_ns=100.0, bandwidth_gbps=1.0)
        assert node.access_time_ns(1000) == pytest.approx(1100.0)

    def test_table_i_fast_access(self):
        node = make_node()
        # 64-byte line: 65.7 + 64/14.9
        assert node.access_time_ns(64) == pytest.approx(65.7 + 64 / 14.9)

    def test_slower_node_costs_more(self):
        fast = make_node()
        slow = make_node(name="SlowMem", kind=NodeKind.SLOW,
                         latency_ns=238.1, bandwidth_gbps=1.81)
        assert slow.access_time_ns(4096) > fast.access_time_ns(4096)


class TestSlowdownFactors:
    def test_table_i_factors(self):
        fast = make_node()
        slow = make_node(name="SlowMem", kind=NodeKind.SLOW,
                         latency_ns=238.1, bandwidth_gbps=1.81)
        bw, lat = slow.slowdown_factors(fast)
        assert bw == pytest.approx(0.12, abs=0.01)
        assert lat == pytest.approx(3.62, abs=0.01)

    def test_self_factors_are_unity(self):
        node = make_node()
        assert node.slowdown_factors(node) == (1.0, 1.0)
