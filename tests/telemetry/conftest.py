"""Fixtures for the telemetry suite: a tiny grid over a fast workload."""

from __future__ import annotations

import pytest

from repro.runner import ExperimentSpec
from repro.ycsb.distributions import DistributionSpec
from repro.ycsb.sizes import THUMBNAIL
from repro.ycsb.workload import WorkloadSpec


@pytest.fixture
def tiny_specs(small_spec: WorkloadSpec) -> list[ExperimentSpec]:
    """Three placements of the shared small workload."""
    return [
        ExperimentSpec(workload=small_spec, engine="redis", placement="fast"),
        ExperimentSpec(workload=small_spec, engine="redis", placement="slow"),
        ExperimentSpec(
            workload=small_spec, engine="redis",
            placement="split", fast_fraction=0.3,
        ),
    ]


@pytest.fixture
def two_workload_specs(small_spec: WorkloadSpec) -> list[ExperimentSpec]:
    """Four cells over two workloads: two batches, two traces."""
    other = WorkloadSpec(
        name="tiny_zipf",
        distribution=DistributionSpec(name="scrambled_zipfian"),
        read_fraction=0.8,
        size_model=THUMBNAIL,
        n_keys=150,
        n_requests=2_000,
        seed=13,
    )
    return [
        ExperimentSpec(workload=w, engine="redis", placement=p)
        for w in (small_spec, other)
        for p in ("fast", "slow")
    ]
