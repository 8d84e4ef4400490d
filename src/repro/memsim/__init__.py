"""Hybrid memory system simulator.

This package stands in for the paper's throttled dual-socket testbed
(Section II, Table I).  It models:

- :class:`~repro.memsim.node.MemoryNode` — a memory component with latency,
  bandwidth and capacity (FastMem = DRAM, SlowMem = emulated NVM);
- :class:`~repro.memsim.cache.LLCModel` — the 12 MB shared last-level cache;
- :class:`~repro.memsim.timing.AccessTimer` — the per-access cost model with
  an optional measurement-noise term;
- :class:`~repro.memsim.system.HybridMemorySystem` — the Fast/Slow node pair
  (and any tiers below) with the Table I preset;
- :mod:`~repro.memsim.kernel` — the batch timing kernel every measured
  number goes through.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "cache": ["LLCModel"],
    "emulation": [
        "TABLE_I_FAST", "TABLE_I_SLOW", "ThrottleFactors",
        "emulated_slow_node", "table_i_factors",
    ],
    "node": ["MemoryNode", "NodeKind"],
    "system": ["HybridMemorySystem"],
    "timing": ["AccessTimer", "NoiseModel"],
})
