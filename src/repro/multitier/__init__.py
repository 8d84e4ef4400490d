"""Multi-tier extension: Mnemo's model beyond two memory components.

The paper targets a two-component hybrid (DRAM + NVM).  Its model
generalises naturally: with per-tier baselines (the workload executed
with all data in tier *k*, for every tier), the runtime of any
placement is the sum over tiers of the requests that tier serves times
that tier's measured average service times, and the memory cost is the
capacity-weighted sum of per-tier price factors
(:func:`~repro.cost.model.tier_cost_factor`).

The system and the simulator are the core ones: a
:class:`~repro.memsim.system.HybridMemorySystem` whose ``far`` tiers
(CXL-attached or borrowed remote memory) extend the FastMem/SlowMem
pair, and the batch kernel, a placement being one tier per key.  This
package holds the :class:`~repro.multitier.advisor.MultiTierAdvisor`:
per-tier baselines, waterfall placement, capacity sweeps, Pareto
frontier and SLO queries.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "advisor": ["MultiTierAdvisor", "MultiTierBaselines", "TieredPlan"],
})
