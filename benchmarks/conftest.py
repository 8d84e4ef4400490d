"""Shared fixtures for the benchmark harness.

Benchmarks run at the paper's scale (10,000 keys / 100,000 requests per
workload).  Heavy artefacts — generated traces and Mnemo reports — are
built once per session and shared across bench files.
"""

from __future__ import annotations

import pytest

from common import shared_cache

from repro.core import Mnemo
from repro.kvstore import DynamoLike, MemcachedLike, RedisLike
from repro.ycsb import TABLE_III_WORKLOADS, YCSBClient, generate_trace

ENGINES = {
    "redis": RedisLike,
    "memcached": MemcachedLike,
    "dynamodb": DynamoLike,
}


@pytest.fixture(scope="session")
def paper_traces():
    """All five Table III workloads at full paper scale."""
    return {w.name: generate_trace(w) for w in TABLE_III_WORKLOADS}


@pytest.fixture(scope="session")
def bench_client():
    """The measuring client used across benches (3 runs, 1 % noise).

    Caching: every measurement is memoized in the suite-wide result
    cache, so benches that profile the same (workload, engine) pair
    share baselines instead of recomputing them — within a session and
    across reruns.
    """
    return YCSBClient(
        repeats=3, noise_sigma=0.01, seed=2019, cache=shared_cache()
    )


@pytest.fixture(scope="session")
def redis_reports(paper_traces, bench_client):
    """Mnemo (touch-order) reports for Redis on every workload."""
    mnemo = Mnemo(engine_factory=RedisLike, client=bench_client)
    return {name: mnemo.profile(t) for name, t in paper_traces.items()}


@pytest.fixture(scope="session")
def all_reports(paper_traces, bench_client):
    """Mnemo reports for every (engine, workload) pair."""
    out = {}
    for engine_name, factory in ENGINES.items():
        mnemo = Mnemo(engine_factory=factory, client=bench_client)
        for wname, trace in paper_traces.items():
            out[(engine_name, wname)] = mnemo.profile(trace)
    return out
