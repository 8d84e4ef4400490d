"""The paper's two-server deployment, as a FastMem mask.

The paper deploys *two* unmodified server processes on the testbed,
``numactl``-bound to FastMem and SlowMem, behind a YCSB core that routes
each request to the instance holding its key (Section II, "Server
Configuration").  What the measurement needs of that setup is which
keys sit on FastMem: :class:`HybridDeployment` is the engine profile,
the memory system, the record sizes and that mask, checked once against
each node's capacity.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.errors import CapacityError, ConfigurationError
from repro.kvstore.base import KVEngine
from repro.memsim.system import HybridMemorySystem

EngineFactory = Callable[..., KVEngine]


def check_capacity(system: HybridMemorySystem, fast_bytes: int,
                   total_bytes: int) -> None:
    """Raise :class:`CapacityError` unless FastMem holds *fast_bytes* of
    payload and SlowMem the rest of *total_bytes* (record headers not
    counted), FastMem checked first."""
    for node, payload in ((system.fast, fast_bytes),
                          (system.slow, total_bytes - fast_bytes)):
        if payload > node.capacity_bytes:
            raise CapacityError(
                f"{node.name}: placement needs {payload} B but the node "
                f"has {node.capacity_bytes} B"
            )


class HybridDeployment:
    """FastServer + SlowServer: record sizes and the FastMem mask.

    Parameters
    ----------
    engine_factory:
        Engine class shared by both instances (``RedisLike`` /
        ``MemcachedLike`` / ``DynamoLike``) or any callable with the
        ``(fast, slow)`` signature whose result has a ``.profile``.
    system:
        The hybrid memory system.
    record_sizes:
        Dense array: ``record_sizes[key]`` is the size of key ``key``;
        the key space is ``0 .. len(record_sizes) - 1``.
    fast_keys:
        Iterable of keys placed on the FastMem instance (default: none,
        the SlowMem-only worst case).

    Raises
    ------
    CapacityError
        If the FastMem payload exceeds ``system.fast.capacity_bytes`` or
        the rest exceeds ``system.slow.capacity_bytes``.
    """

    def __init__(
        self,
        engine_factory: EngineFactory,
        system: HybridMemorySystem,
        record_sizes: np.ndarray,
        fast_keys: Iterable[int] = (),
    ):
        record_sizes = np.asarray(record_sizes, dtype=np.int64)
        if record_sizes.ndim != 1 or record_sizes.size == 0:
            raise ConfigurationError("record_sizes must be a non-empty 1-D array")
        if (record_sizes <= 0).any():
            raise ConfigurationError("all record sizes must be positive")
        fast_keys = np.fromiter(fast_keys, dtype=np.int64, count=-1)
        if fast_keys.size and (
            fast_keys.min() < 0 or fast_keys.max() >= record_sizes.size
        ):
            raise ConfigurationError("fast_keys outside the key space")
        self.system = system
        self.record_sizes = record_sizes
        self.fast_mask = np.zeros(record_sizes.size, dtype=bool)
        self.fast_mask[fast_keys] = True
        check_capacity(system, self.fast_bytes(), int(record_sizes.sum()))
        self.profile = engine_factory(system.fast, system.slow).profile

    @classmethod
    def all_fast(
        cls, engine_factory: EngineFactory, system: HybridMemorySystem,
        record_sizes: np.ndarray,
    ) -> "HybridDeployment":
        """Best-case baseline deployment: every record on FastMem."""
        n = np.asarray(record_sizes).size
        return cls(engine_factory, system, record_sizes, fast_keys=range(n))

    @classmethod
    def all_slow(
        cls, engine_factory: EngineFactory, system: HybridMemorySystem,
        record_sizes: np.ndarray,
    ) -> "HybridDeployment":
        """Worst-case baseline deployment: every record on SlowMem."""
        return cls(engine_factory, system, record_sizes, fast_keys=())

    @property
    def n_keys(self) -> int:
        """Size of the key space."""
        return self.record_sizes.size

    def fast_bytes(self) -> int:
        """Payload bytes placed on FastMem."""
        return int(self.record_sizes[self.fast_mask].sum())

    def capacity_ratio(self) -> float:
        """FastMem payload / total payload (the paper's x-axis driver)."""
        return self.fast_bytes() / int(self.record_sizes.sum())

    def placement_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(record_sizes, fast_mask) for the vectorized client path."""
        return self.record_sizes, self.fast_mask
