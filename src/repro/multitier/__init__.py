"""Multi-tier extension: Mnemo's model beyond two memory components.

The paper targets a two-component hybrid (DRAM + NVM).  Its model
generalises naturally: with per-tier baselines (the workload executed
with all data in tier *k*, for every tier), the runtime of any
placement is the sum over tiers of the requests that tier serves times
that tier's measured average service times, and the memory cost is the
capacity-weighted sum of per-tier price factors.

This package implements that generalisation for future systems with
DRAM + NVM + a far tier (e.g. CXL-attached or borrowed remote memory):

- :class:`~repro.multitier.system.TierSpec` /
  :class:`~repro.multitier.system.TieredMemorySystem` — N ordered tiers;
- :class:`~repro.multitier.client.MultiTierClient` — measures a trace
  under an arbitrary key→tier assignment;
- :class:`~repro.multitier.advisor.MultiTierAdvisor` — per-tier
  baselines, waterfall placement, capacity sweeps, Pareto frontier and
  SLO queries.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "advisor": ["MultiTierAdvisor", "MultiTierBaselines", "TieredPlan"],
    "client": ["MultiTierClient"],
    "system": ["TieredMemorySystem", "TierSpec"],
})
