"""Tests for the three store engines: each is its calibrated profile."""

import numpy as np
import pytest

from repro.errors import CapacityError
from repro.kvstore import (
    DYNAMO_PROFILE,
    DynamoLike,
    HybridDeployment,
    MemcachedLike,
    RedisLike,
)
from repro.memsim import HybridMemorySystem


class TestCapacityEnforcement:
    def test_fast_node_overflow_raises(self, engine_factory):
        system = HybridMemorySystem.testbed(fast_capacity_bytes=2_000_000)
        sizes = np.full(10, 1_000_000, dtype=np.int64)
        with pytest.raises(CapacityError):
            HybridDeployment.all_fast(engine_factory, system, sizes)


class TestEngineSpecifics:
    def test_profiles_attached(self, system):
        assert RedisLike(system.fast, system.slow).profile.name == "redis"
        assert MemcachedLike(system.fast, system.slow).profile.name == "memcached"
        assert DynamoLike(system.fast, system.slow).profile.name == "dynamodb"

    def test_profile_override(self, system):
        engine = RedisLike(system.fast, system.slow, DYNAMO_PROFILE)
        assert engine.profile is DYNAMO_PROFILE
