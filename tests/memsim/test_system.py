"""Tests for the hybrid memory system."""

import pytest

from repro.errors import ConfigurationError
from repro.memsim import HybridMemorySystem, MemoryNode, NodeKind
from repro.units import GiB, MB


class TestTestbedPreset:
    def test_table_i_values(self, system):
        assert system.fast.latency_ns == pytest.approx(65.7)
        assert system.fast.bandwidth_gbps == pytest.approx(14.9)
        assert system.slow.latency_ns == pytest.approx(238.1)
        assert system.slow.bandwidth_gbps == pytest.approx(1.81)

    def test_default_capacities(self, system):
        assert system.fast.capacity_bytes == 4 * GiB
        assert system.slow.capacity_bytes == 4 * GiB
        assert system.total_capacity_bytes == 8 * GiB

    def test_llc_default(self, system):
        assert system.llc.capacity_bytes == 12 * MB

    def test_custom_capacities(self):
        s = HybridMemorySystem.testbed(
            fast_capacity_bytes=GiB, slow_capacity_bytes=2 * GiB
        )
        assert s.fast.capacity_bytes == GiB
        assert s.slow.capacity_bytes == 2 * GiB

    def test_describe_matches_table_i(self, system):
        desc = system.describe()
        assert desc["SlowMem"]["bandwidth_factor"] == pytest.approx(0.12, abs=0.01)
        assert desc["SlowMem"]["latency_factor"] == pytest.approx(3.62, abs=0.01)
        assert desc["FastMem"]["latency_factor"] == 1.0


class TestValidation:
    def _node(self, kind, lat):
        return MemoryNode(name="n", kind=kind, latency_ns=lat,
                          bandwidth_gbps=1.0, capacity_bytes=GiB)

    def test_wrong_fast_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            HybridMemorySystem(
                fast=self._node(NodeKind.SLOW, 60),
                slow=self._node(NodeKind.SLOW, 200),
            )

    def test_swapped_latencies_rejected(self):
        with pytest.raises(ConfigurationError):
            HybridMemorySystem(
                fast=self._node(NodeKind.FAST, 300),
                slow=self._node(NodeKind.SLOW, 100),
            )


class TestNodes:
    def test_nodes_property(self, system):
        assert system.nodes == (system.fast, system.slow)
