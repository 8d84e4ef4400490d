"""Shared fixtures for the test suite.

Scales are kept small (hundreds of keys, thousands of requests) so the
whole suite runs in seconds; the benchmarks exercise paper scale.
"""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.kvstore import DynamoLike, MemcachedLike, RedisLike
from repro.memsim import HybridMemorySystem
from repro.ycsb import YCSBClient, generate_trace, workload_by_name
from repro.ycsb.distributions import DistributionSpec
from repro.ycsb.sizes import THUMBNAIL, SizeModel
from repro.ycsb.workload import WorkloadSpec

ALL_ENGINES = (RedisLike, MemcachedLike, DynamoLike)


@pytest.fixture
def system() -> HybridMemorySystem:
    """A fresh Table I testbed."""
    return HybridMemorySystem.testbed()


@pytest.fixture
def small_spec() -> WorkloadSpec:
    """A small hotspot read-only workload (fast to run everywhere)."""
    return WorkloadSpec(
        name="small_hotspot",
        distribution=DistributionSpec(
            name="hotspot", hot_data_fraction=0.2, hot_op_fraction=0.75
        ),
        read_fraction=1.0,
        size_model=THUMBNAIL,
        n_keys=200,
        n_requests=4_000,
        seed=7,
    )


@pytest.fixture
def small_trace(small_spec):
    """The generated trace of ``small_spec``."""
    return generate_trace(small_spec)


@pytest.fixture
def savez_compressed_blob():
    """The NPZ bytes the trace / hit-mask codecs wrote before PR 13.

    Old stores hold blobs from ``np.savez_compressed`` (deflate 6); the
    codecs must keep reading them.
    """
    def pack(**arrays) -> bytes:
        buf = io.BytesIO()
        np.savez_compressed(
            buf, **{k: np.asarray(v) for k, v in arrays.items()}
        )
        return buf.getvalue()

    return pack


@pytest.fixture
def mixed_spec() -> WorkloadSpec:
    """A small mixed read/write zipfian workload."""
    return WorkloadSpec(
        name="small_mixed",
        distribution=DistributionSpec(name="scrambled_zipfian"),
        read_fraction=0.5,
        size_model=SizeModel(name="small_vals", median_bytes=2_000, sigma=0.3),
        n_keys=300,
        n_requests=5_000,
        seed=11,
    )


@pytest.fixture
def mixed_trace(mixed_spec):
    """The generated trace of ``mixed_spec``."""
    return generate_trace(mixed_spec)


@pytest.fixture
def quiet_client() -> YCSBClient:
    """A noise-free single-repeat client for deterministic assertions."""
    return YCSBClient(repeats=1, noise_sigma=0.0)


@pytest.fixture
def tiny_sizes() -> np.ndarray:
    """A 10-record dataset with deterministic sizes."""
    return np.array([100, 200, 300, 400, 500, 600, 700, 800, 900, 1_000],
                    dtype=np.int64)


@pytest.fixture(params=ALL_ENGINES, ids=lambda e: e.__name__)
def engine_factory(request):
    """Parametrised over the three store engines."""
    return request.param
