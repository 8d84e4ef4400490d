"""The multi-tier sizing advisor.

Generalises Mnemo's pipeline to N tiers:

1. *baselines*: execute the workload with all data in each tier
   (N placements of one batch instead of 2);
2. *placement*: waterfall the MnemoT weight ordering into the tier
   capacities (hottest keys to the fastest tier until full, then the
   next tier, ...);
3. *estimate*: runtime = Σ_tier reads_t·avg_read_t + writes_t·avg_write_t
   with the per-tier averages taken from the baselines — the exact
   N-tier analog of the paper's telescoped two-tier model;
4. *sweep*: evaluate a grid of capacity vectors, keep the Pareto
   frontier, answer SLO queries.

Measurements are the client's ``execute_placements`` (the path of every
two-tier number) of one tier per key on a
:class:`~repro.memsim.system.HybridMemorySystem` with ``far`` tiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.pattern import weight_order
from repro.cost.model import check_tier_prices, tier_cost_factor
from repro.errors import ConfigurationError, EstimateError
from repro.kvstore.profiles import EngineProfile
from repro.memsim.kernel import TIER_DTYPE
from repro.memsim.system import HybridMemorySystem
from repro.units import NS_PER_S
from repro.ycsb.client import RunResult, YCSBClient
from repro.ycsb.workload import Trace


@dataclass(frozen=True)
class MultiTierBaselines:
    """One all-in-tier-k measurement per tier, fastest first."""

    runs: tuple[RunResult, ...]

    def __post_init__(self) -> None:
        if len(self.runs) < 2:
            raise ConfigurationError("need baselines for at least two tiers")

    @property
    def n_requests(self) -> int:
        """Requests per baseline run (identical across tiers)."""
        return self.runs[0].n_requests

    def read_times(self) -> np.ndarray:
        """Per-tier runtime contribution of one read."""
        return np.array([r.read_runtime_contrib_ns for r in self.runs])

    def write_times(self) -> np.ndarray:
        """Per-tier runtime contribution of one write."""
        return np.array([r.write_runtime_contrib_ns for r in self.runs])


@dataclass(frozen=True)
class TieredPlan:
    """A concrete placement plus its predicted behaviour."""

    workload: str
    assignment: np.ndarray        # key -> tier index
    bytes_per_tier: np.ndarray
    cost_factor: float
    est_runtime_ns: float
    n_requests: int

    @property
    def est_throughput_ops_s(self) -> float:
        """Estimated operations per second."""
        return self.n_requests / (self.est_runtime_ns / NS_PER_S)

    def tier_shares(self) -> np.ndarray:
        """Fraction of the dataset per tier."""
        return self.bytes_per_tier / self.bytes_per_tier.sum()


class MultiTierAdvisor:
    """N-tier capacity sizing consultant.

    *prices* holds one per-byte price factor per tier of *system*
    (:func:`~repro.cost.model.check_tier_prices`).  *client* measures,
    as it does for :class:`~repro.core.mnemo.Mnemo` (default: a fresh
    :class:`~repro.ycsb.client.YCSBClient`; one with a store recalls).
    """

    def __init__(
        self,
        system: HybridMemorySystem,
        profile: EngineProfile,
        prices: Sequence[float],
        client: YCSBClient | None = None,
    ):
        self.system = system
        self.profile = profile
        self.prices = check_tier_prices(prices)
        if self.prices.size != len(system.nodes):
            raise ConfigurationError(
                f"need one price factor per tier ({len(system.nodes)})"
            )
        self.client = client if client is not None else YCSBClient()

    # -- baselines -----------------------------------------------------------

    def measure(self, trace: Trace) -> MultiTierBaselines:
        """Execute the workload all-in-tier-k for every tier, as one batch.

        Capacity bounds are ignored during profiling (as in the paper,
        where total capacity is fixed to the dataset size); they only
        constrain the placements being evaluated.
        """
        placements = [
            np.full(trace.n_keys, k, dtype=TIER_DTYPE)
            for k in range(self.prices.size)
        ]
        return MultiTierBaselines(runs=tuple(self.client.execute_placements(
            trace, placements, self.profile, self.system,
        )))

    # -- placement -----------------------------------------------------------

    def waterfall_assignment(
        self, trace: Trace, capacities: Sequence[int | None]
    ) -> np.ndarray:
        """Fill tiers in order with the accesses/size weight ordering.

        ``capacities[k] = None`` means unbounded; at least the last
        tier must absorb whatever is left.  Each tier takes the longest
        run of the remaining keys, in weight order, that fits it: one
        ``searchsorted`` on the running byte total per tier.
        """
        if len(capacities) != self.prices.size:
            raise ConfigurationError(
                f"need one capacity per tier ({self.prices.size})"
            )
        sizes = trace.record_sizes
        order = weight_order(trace.access_counts(), sizes)
        # filled[i]: bytes of the first i keys in weight order
        filled = np.concatenate(([0], np.cumsum(sizes[order])))
        n = order.size
        ends = [0]  # tier k holds order[ends[k]:ends[k + 1]]
        for cap in capacities[:-1]:
            fit = n if cap is None else np.searchsorted(
                filled, filled[ends[-1]] + cap, "right") - 1
            ends.append(max(ends[-1], int(fit)))
        cap, end = capacities[-1], ends[-1]
        if cap is not None and end < n and filled[n] - filled[end] > cap:
            raise EstimateError(
                "dataset does not fit the given tier capacities"
            )
        assignment = np.empty(n, dtype=np.int64)
        assignment[order] = np.repeat(
            np.arange(self.prices.size), np.diff([*ends, n])
        )
        return assignment

    # -- estimation -----------------------------------------------------------

    def estimate(
        self,
        trace: Trace,
        baselines: MultiTierBaselines,
        capacities: Sequence[int | None],
    ) -> TieredPlan:
        """Predict runtime and cost of the waterfall placement."""
        assignment = self.waterfall_assignment(trace, capacities)
        return self.estimate_assignment(trace, baselines, assignment)

    def estimate_assignment(
        self,
        trace: Trace,
        baselines: MultiTierBaselines,
        assignment: np.ndarray,
    ) -> TieredPlan:
        """Predict runtime and cost of an explicit assignment."""
        n_tiers = self.prices.size
        reads, writes = trace.per_key_counts()
        reads_t = np.bincount(assignment, weights=reads, minlength=n_tiers)
        writes_t = np.bincount(assignment, weights=writes, minlength=n_tiers)
        bytes_t = np.bincount(assignment, weights=trace.record_sizes,
                              minlength=n_tiers)
        runtime = float(
            (reads_t * baselines.read_times()).sum()
            + (writes_t * baselines.write_times()).sum()
        )
        if runtime <= 0:
            raise EstimateError("estimated runtime is non-positive")
        return TieredPlan(
            workload=trace.name,
            assignment=assignment,
            bytes_per_tier=bytes_t,
            cost_factor=tier_cost_factor(bytes_t, self.prices),
            est_runtime_ns=runtime,
            n_requests=trace.n_requests,
        )

    # -- sweeps ---------------------------------------------------------------

    def sweep(
        self,
        trace: Trace,
        baselines: MultiTierBaselines,
        capacity_grid: Iterable[Sequence[int | None]],
    ) -> list[TieredPlan]:
        """Estimate every capacity vector in *capacity_grid*."""
        plans = []
        for capacities in capacity_grid:
            try:
                plans.append(self.estimate(trace, baselines, capacities))
            except EstimateError:
                continue  # vector cannot hold the dataset
        if not plans:
            raise EstimateError("no capacity vector in the grid fits")
        return plans

    @staticmethod
    def pareto(plans: Sequence[TieredPlan]) -> list[TieredPlan]:
        """Cost-ascending Pareto frontier (no plan dominated on both axes)."""
        ordered = sorted(plans, key=lambda p: (p.cost_factor,
                                               -p.est_throughput_ops_s))
        frontier: list[TieredPlan] = []
        best = -np.inf
        for plan in ordered:
            if plan.est_throughput_ops_s > best:
                frontier.append(plan)
                best = plan.est_throughput_ops_s
        return frontier

    def cheapest_within_slo(
        self,
        plans: Sequence[TieredPlan],
        baselines: MultiTierBaselines,
        max_slowdown: float = 0.10,
    ) -> TieredPlan:
        """Cheapest plan within *max_slowdown* of the all-tier-0 run."""
        if not 0 <= max_slowdown < 1:
            raise ConfigurationError("max_slowdown must be in [0, 1)")
        ref = baselines.runs[0].throughput_ops_s
        feasible = [p for p in plans
                    if p.est_throughput_ops_s >= (1 - max_slowdown) * ref]
        if not feasible:
            raise EstimateError("no plan meets the SLO")
        return min(feasible, key=lambda p: p.cost_factor)

    # -- validation -------------------------------------------------------------

    def validate(self, trace: Trace, plan: TieredPlan) -> RunResult:
        """Measure the plan's placement for estimate-accuracy checks."""
        (run,) = self.client.execute_placements(
            trace, [plan.assignment.astype(TIER_DTYPE)], self.profile,
            self.system,
        )
        return run
