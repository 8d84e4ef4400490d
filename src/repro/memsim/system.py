"""The hybrid memory system: a FastMem/SlowMem node pair, and tiers below.

Mirrors the paper's testbed (Section II): two memory nodes and a shared
12 MB LLC.  SlowMem extends the flat address space; FastMem does not act as a cache
for SlowMem (explicit assumption in the paper).  Further tiers (``far``:
CXL-attached or borrowed remote memory) extend the same ordered list;
the paper's pair is the two-tier case.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError
from repro.memsim.cache import LLCModel
from repro.memsim.emulation import TABLE_I_FAST, TABLE_I_SLOW
from repro.memsim.node import MemoryNode, NodeKind
from repro.units import MB


@dataclass
class HybridMemorySystem:
    """An ordered list of memory tiers, fastest first, with a shared LLC.

    Use :meth:`testbed` for the paper's Table I configuration, or
    construct nodes directly for what-if studies (larger capacities,
    different throttle factors, projected Optane parts, ...).  ``far``
    holds the tiers below SlowMem, fastest first (empty for the paper's
    two-node system); :meth:`dram_nvm_far` is the three-tier preset.
    """

    fast: MemoryNode
    slow: MemoryNode
    llc: LLCModel = field(default_factory=lambda: LLCModel(capacity_bytes=12 * MB))
    far: tuple[MemoryNode, ...] = ()

    def __post_init__(self) -> None:
        if self.fast.kind is not NodeKind.FAST:
            raise ConfigurationError("fast node must have kind NodeKind.FAST")
        if self.slow.kind is not NodeKind.SLOW:
            raise ConfigurationError("slow node must have kind NodeKind.SLOW")
        latencies = [n.latency_ns for n in self.nodes]
        if latencies != sorted(latencies):
            raise ConfigurationError(
                "node latencies must not decrease down the tiers "
                f"(got {latencies}); nodes are swapped?"
            )

    # -- presets ---------------------------------------------------------------

    @classmethod
    def testbed(
        cls,
        fast_capacity_bytes: int | None = None,
        slow_capacity_bytes: int | None = None,
        llc_bytes: int = 12 * MB,
    ) -> "HybridMemorySystem":
        """The paper's emulated testbed (Table I).

        FastMem: 65.7 ns / 14.9 GB/s; SlowMem: 238.1 ns / 1.81 GB/s
        (B:0.12 L:3.62); 12 MB shared LLC; 4 GiB per node by default.
        """
        fast = MemoryNode(
            name="FastMem",
            kind=NodeKind.FAST,
            latency_ns=TABLE_I_FAST["latency_ns"],
            bandwidth_gbps=TABLE_I_FAST["bandwidth_gbps"],
            capacity_bytes=fast_capacity_bytes or TABLE_I_FAST["capacity_bytes"],
        )
        slow = MemoryNode(
            name="SlowMem",
            kind=NodeKind.SLOW,
            latency_ns=TABLE_I_SLOW["latency_ns"],
            bandwidth_gbps=TABLE_I_SLOW["bandwidth_gbps"],
            capacity_bytes=slow_capacity_bytes or TABLE_I_SLOW["capacity_bytes"],
        )
        return cls(fast=fast, slow=slow, llc=LLCModel(capacity_bytes=llc_bytes))

    @classmethod
    def dram_nvm_far(cls) -> "HybridMemorySystem":
        """:meth:`testbed` plus a far tier (CXL-attached / borrowed remote
        memory): 500 ns and 0.9 GB/s, about twice SlowMem's latency and
        half its bandwidth."""
        far = MemoryNode("Far", NodeKind.SLOW, latency_ns=500.0,
                         bandwidth_gbps=0.9,
                         capacity_bytes=TABLE_I_SLOW["capacity_bytes"])
        return replace(cls.testbed(), far=(far,))

    def degraded(
        self,
        slow_latency_factor: float = 1.0,
        slow_bandwidth_factor: float = 1.0,
        fast_latency_factor: float = 1.0,
        fast_bandwidth_factor: float = 1.0,
    ) -> "HybridMemorySystem":
        """A copy of this system with steady-state device degradation.

        The per-request fault timelines in :mod:`repro.faults` model
        *transient* misbehaviour; this models a device that has settled
        into a worse operating point (worn NVM media, thermal
        throttling) — the scenario under which sizing decisions drift.
        The LLC is shared hardware and carries over unchanged, as do
        the ``far`` tiers.
        """
        return HybridMemorySystem(
            fast=self.fast.degraded(fast_latency_factor, fast_bandwidth_factor),
            slow=self.slow.degraded(slow_latency_factor, slow_bandwidth_factor),
            llc=LLCModel(
                capacity_bytes=self.llc.capacity_bytes,
                hit_latency_ns=self.llc.hit_latency_ns,
            ),
            far=tuple(node.degraded() for node in self.far),
        )

    @property
    def nodes(self) -> tuple[MemoryNode, ...]:
        """Every tier, fastest first: ``(fast, slow, *far)``."""
        return (self.fast, self.slow, *self.far)

    @property
    def total_capacity_bytes(self) -> int:
        """Combined capacity of every node (flat address space)."""
        return sum(n.capacity_bytes for n in self.nodes)

    def describe(self) -> dict[str, dict[str, float]]:
        """Table I-style summary: per-node latency, bandwidth and their
        factors relative to FastMem, fastest first."""
        out = {}
        for node in self.nodes:
            bw_f, lat_f = node.slowdown_factors(self.fast)
            out[node.name] = {
                "latency_ns": node.latency_ns,
                "bandwidth_gbps": node.bandwidth_gbps,
                "bandwidth_factor": bw_f,
                "latency_factor": lat_f,
            }
        return out
