"""Shared fixtures for the guard suite.

Profiling runs are the expensive part of these tests, so the planning
trace and its report are built once per session and shared; everything
downstream of them is deterministic (integer-seeded clients), so
sharing does not couple the tests.
"""

from __future__ import annotations

import pytest

from repro.core import Mnemo
from repro.kvstore import RedisLike
from repro.ycsb import YCSBClient, generate_trace
from repro.ycsb.distributions import DistributionSpec
from repro.ycsb.sizes import THUMBNAIL
from repro.ycsb.workload import WorkloadSpec


@pytest.fixture(scope="session")
def small_trace_module():
    """A small hotspot trace shared by the whole guard suite."""
    spec = WorkloadSpec(
        name="guard_hotspot",
        distribution=DistributionSpec(
            name="hotspot", hot_data_fraction=0.2, hot_op_fraction=0.75
        ),
        read_fraction=1.0,
        size_model=THUMBNAIL,
        n_keys=200,
        n_requests=4_000,
        seed=7,
    )
    return generate_trace(spec)


@pytest.fixture(scope="session")
def guard_client():
    """A fast, deterministic (hence cacheable) measuring client."""
    return YCSBClient(repeats=1, seed=13)


@pytest.fixture(scope="session")
def guard_report(small_trace_module, guard_client):
    """One profiling report shared across the guard suite."""
    mnemo = Mnemo(engine_factory=RedisLike, client=guard_client)
    return mnemo.profile(small_trace_module)


@pytest.fixture
def kernel_builds(monkeypatch):
    """Every :class:`~repro.memsim.kernel.BatchKernel` built while the
    test runs (a warm caching client builds none)."""
    from repro.memsim.kernel import BatchKernel

    built = []
    init = BatchKernel.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BatchKernel, "__init__", counting_init)
    return built
