"""Hybrid memory system simulator.

This package stands in for the paper's throttled dual-socket testbed
(Section II, Table I).  It models:

- :class:`~repro.memsim.node.MemoryNode` — a memory component with latency,
  bandwidth and capacity (FastMem = DRAM, SlowMem = emulated NVM);
- :class:`~repro.memsim.cache.LLCModel` — the 12 MB shared last-level cache;
- :class:`~repro.memsim.timing.AccessTimer` — the per-access cost model with
  an optional measurement-noise term;
- :class:`~repro.memsim.allocator.AddressSpaceAllocator` — a first-fit
  allocator so node occupancy accounting is real;
- :class:`~repro.memsim.system.HybridMemorySystem` — the Fast/Slow node pair
  with ``numactl``-style binding and the Table I preset.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "allocator": ["AddressSpaceAllocator", "Allocation"],
    "cache": ["LLCModel"],
    "emulation": [
        "TABLE_I_FAST", "TABLE_I_SLOW", "ThrottleFactors",
        "emulated_slow_node", "table_i_factors",
    ],
    "node": ["MemoryNode", "NodeKind"],
    "system": ["HybridMemorySystem"],
    "timing": ["AccessTimer", "NoiseModel"],
})
