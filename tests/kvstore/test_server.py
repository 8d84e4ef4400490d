"""Tests for HybridDeployment: a FastMem mask with a capacity check."""

import numpy as np
import pytest

from repro.errors import CapacityError, ConfigurationError
from repro.kvstore import HybridDeployment, RedisLike
from repro.memsim import HybridMemorySystem


class TestHybridDeployment:
    def test_fast_mask(self, system, tiny_sizes):
        dep = HybridDeployment(RedisLike, system, tiny_sizes, fast_keys=[3, 7])
        assert dep.fast_mask.sum() == 2
        assert dep.fast_mask[3] and dep.fast_mask[7]

    def test_all_fast(self, system, tiny_sizes):
        dep = HybridDeployment.all_fast(RedisLike, system, tiny_sizes)
        assert dep.fast_mask.all()
        assert dep.capacity_ratio() == 1.0

    def test_all_slow(self, system, tiny_sizes):
        dep = HybridDeployment.all_slow(RedisLike, system, tiny_sizes)
        assert not dep.fast_mask.any()
        assert dep.capacity_ratio() == 0.0

    def test_fast_bytes(self, system, tiny_sizes):
        dep = HybridDeployment(RedisLike, system, tiny_sizes, fast_keys=[0, 9])
        assert dep.fast_bytes() == tiny_sizes[0] + tiny_sizes[9]

    def test_out_of_range_fast_keys_rejected(self, system, tiny_sizes):
        with pytest.raises(ConfigurationError):
            HybridDeployment(RedisLike, system, tiny_sizes, fast_keys=[99])

    def test_empty_sizes_rejected(self, system):
        with pytest.raises(ConfigurationError):
            HybridDeployment(RedisLike, system, np.array([], dtype=np.int64))

    def test_nonpositive_sizes_rejected(self, system):
        with pytest.raises(ConfigurationError):
            HybridDeployment(RedisLike, system, np.array([10, 0], dtype=np.int64))

    def test_placement_arrays(self, system, tiny_sizes):
        dep = HybridDeployment(RedisLike, system, tiny_sizes, fast_keys=[1])
        sizes, mask = dep.placement_arrays()
        assert sizes is dep.record_sizes
        assert mask[1] and mask.sum() == 1

    def test_profile_shared(self, system, tiny_sizes):
        dep = HybridDeployment(RedisLike, system, tiny_sizes)
        assert dep.profile.name == "redis"
        assert dep.n_keys == tiny_sizes.size


class TestCapacityCheck:
    """One check per node: FastMem payload against FastMem's capacity,
    the rest against SlowMem's; record headers are not counted."""

    def test_fast_payload_over_capacity_raises(self, tiny_sizes):
        system = HybridMemorySystem.testbed(fast_capacity_bytes=299)
        with pytest.raises(CapacityError, match="FastMem"):
            HybridDeployment(RedisLike, system, tiny_sizes, fast_keys=[0, 1])

    def test_slow_payload_over_capacity_raises(self, tiny_sizes):
        system = HybridMemorySystem.testbed(slow_capacity_bytes=5_199)
        with pytest.raises(CapacityError, match="SlowMem"):
            HybridDeployment(RedisLike, system, tiny_sizes, fast_keys=[0, 1])

    def test_exact_fit_accepted(self, tiny_sizes):
        system = HybridMemorySystem.testbed(
            fast_capacity_bytes=300, slow_capacity_bytes=5_200,
        )
        dep = HybridDeployment(RedisLike, system, tiny_sizes, fast_keys=[0, 1])
        assert dep.fast_bytes() == 300
