"""Property-based tests for the multi-tier advisor."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.cost.model import (
    DEFAULT_PRICE_FACTOR, FAR_PRICE_FACTOR, tier_cost_factor,
)
from repro.multitier import MultiTierAdvisor
from repro.multitier.advisor import TieredPlan


def make_plan(cost, thr):
    return TieredPlan(
        workload="p",
        assignment=np.zeros(1, dtype=np.int64),
        bytes_per_tier=np.array([1.0, 0.0, 0.0]),
        cost_factor=cost,
        est_runtime_ns=1e9 / thr,
        n_requests=1,
    )


@st.composite
def plan_sets(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    costs = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    thrs = draw(st.lists(st.floats(1.0, 1e6), min_size=n, max_size=n))
    return [make_plan(c, t) for c, t in zip(costs, thrs)]


class TestParetoProperties:
    @given(plans=plan_sets())
    @settings(max_examples=200, deadline=None)
    def test_frontier_is_nondominated(self, plans):
        frontier = MultiTierAdvisor.pareto(plans)
        for f in frontier:
            for p in plans:
                dominates = (p.cost_factor < f.cost_factor - 1e-12 and
                             p.est_throughput_ops_s
                             > f.est_throughput_ops_s + 1e-9)
                assert not dominates

    @given(plans=plan_sets())
    @settings(max_examples=200, deadline=None)
    def test_frontier_sorted_both_axes(self, plans):
        frontier = MultiTierAdvisor.pareto(plans)
        costs = [p.cost_factor for p in frontier]
        thrs = [p.est_throughput_ops_s for p in frontier]
        assert costs == sorted(costs)
        assert thrs == sorted(thrs)

    @given(plans=plan_sets())
    @settings(max_examples=200, deadline=None)
    def test_every_plan_dominated_by_some_frontier_point(self, plans):
        frontier = MultiTierAdvisor.pareto(plans)
        assert frontier  # never empty for a non-empty input
        for p in plans:
            assert any(
                f.cost_factor <= p.cost_factor + 1e-12
                and f.est_throughput_ops_s >= p.est_throughput_ops_s - 1e-9
                for f in frontier
            )

    @given(plans=plan_sets())
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, plans):
        once = MultiTierAdvisor.pareto(plans)
        twice = MultiTierAdvisor.pareto(once)
        assert [(p.cost_factor, p.est_throughput_ops_s) for p in once] == \
            [(p.cost_factor, p.est_throughput_ops_s) for p in twice]


class TestCostFactorProperties:
    @given(
        shares=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3)
        .filter(lambda s: sum(s) > 0)
    )
    @settings(max_examples=200, deadline=None)
    def test_cost_bounded_by_tier_prices(self, shares):
        prices = np.array([1.0, DEFAULT_PRICE_FACTOR, FAR_PRICE_FACTOR])
        r = tier_cost_factor(np.array(shares), prices)
        assert prices.min() - 1e-12 <= r <= prices.max() + 1e-12
