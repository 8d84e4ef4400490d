"""Engine interface shared by the three key-value stores.

An engine owns a dataset of integer-keyed records, places each record on
one memory node of a :class:`~repro.memsim.system.HybridMemorySystem`,
and services GET/PUT/DELETE requests while accruing simulated time from
its :class:`~repro.kvstore.profiles.EngineProfile`.

Two access paths exist:

- the *scalar* path (``get``/``put``/``delete``) maintains the real index
  structures and per-op timing — used by unit tests and small scenarios;
- the *vectorized* path exposes ``key_sizes`` / ``key_nodes`` NumPy arrays
  that the YCSB client uses to time whole traces in a few array ops.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.errors import ConfigurationError, KeyNotFoundError
from repro.kvstore.profiles import EngineProfile
from repro.memsim.node import MemoryNode
from repro.memsim.timing import service_times_ns

#: Node codes used in the vectorized arrays.
FAST, SLOW = 0, 1


@dataclass(frozen=True)
class OpResult:
    """Outcome of one scalar operation."""

    key: int
    op: str  # "get" | "put" | "delete"
    node: str
    service_time_ns: float
    size: int


class KVEngine(abc.ABC):
    """Base class for the simulated key-value store engines.

    Parameters
    ----------
    profile:
        The engine's cost model.
    fast, slow:
        Memory nodes records can be placed on.
    """

    def __init__(self, profile: EngineProfile, fast: MemoryNode, slow: MemoryNode):
        self.profile = profile
        self.fast = fast
        self.slow = slow
        self._sizes: dict[int, int] = {}
        self._nodes: dict[int, int] = {}  # key -> FAST | SLOW
        self.clock_ns = 0.0
        self.op_count = 0

    # -- subclass hooks ---------------------------------------------------------

    @abc.abstractmethod
    def _index_insert(self, key: int, size: int, node_code: int) -> None:
        """Install *key* in the engine's index and storage."""

    @abc.abstractmethod
    def _index_lookup(self, key: int) -> int:
        """Return the stored size for *key* (raise KeyNotFoundError)."""

    @abc.abstractmethod
    def _index_remove(self, key: int) -> None:
        """Remove *key* from the index and storage."""

    @abc.abstractmethod
    def stored_bytes(self, node_code: int) -> int:
        """Bytes the engine reserves on a node (includes allocator slack)."""

    # -- placement ---------------------------------------------------------------

    def _node(self, code: int) -> MemoryNode:
        return self.fast if code == FAST else self.slow

    def node_of(self, key: int) -> str:
        """Name of the node holding *key*."""
        try:
            return self._node(self._nodes[key]).name
        except KeyError:
            raise KeyNotFoundError(key) from None

    def load(self, sizes: Mapping[int, int] | Iterable[tuple[int, int]],
             fast_keys: Iterable[int] = ()) -> None:
        """Bulk-load a dataset.

        Parameters
        ----------
        sizes:
            Mapping (or pairs) of key -> record size in bytes.
        fast_keys:
            Keys to place on FastMem; everything else goes to SlowMem.
        """
        pairs = sizes.items() if isinstance(sizes, Mapping) else sizes
        fast_set = set(fast_keys)
        for key, size in pairs:
            code = FAST if key in fast_set else SLOW
            self._install(key, size, code)

    def _install(self, key: int, size: int, code: int) -> None:
        if size <= 0:
            raise ConfigurationError(f"record size must be positive (key {key})")
        if key in self._sizes:
            raise ConfigurationError(f"key {key} already loaded")
        self._index_insert(key, size, code)
        self._sizes[key] = size
        self._nodes[key] = code

    # -- scalar operations ---------------------------------------------------------

    def _service(self, key: int, is_read: bool, size: int, op: str) -> OpResult:
        code = self._nodes[key]
        node = self._node(code)
        prof = self.profile
        t = float(service_times_ns(
            size + prof.metadata_bytes, node.latency_ns, node.bytes_per_ns,
            prof.passes(is_read), prof.cpu_ns(is_read),
        ))
        self.clock_ns += t
        self.op_count += 1
        return OpResult(key=key, op=op, node=node.name, service_time_ns=t, size=size)

    def get(self, key: int) -> OpResult:
        """Read a record; raises :class:`KeyNotFoundError` if absent."""
        size = self._index_lookup(key)
        return self._service(key, True, size, "get")

    def put(self, key: int, size: int | None = None) -> OpResult:
        """Update an existing record in place (size change allowed)."""
        old = self._index_lookup(key)
        if size is not None and size != old:
            code = self._nodes[key]
            self._index_remove(key)
            self._index_insert(key, size, code)
            self._sizes[key] = size
        return self._service(key, False, size if size is not None else old, "put")

    def delete(self, key: int) -> OpResult:
        """Remove a record."""
        size = self._index_lookup(key)
        result = self._service(key, False, size, "delete")
        self._index_remove(key)
        del self._sizes[key]
        del self._nodes[key]
        return result

    # -- vectorized views -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._sizes)

    @property
    def keys(self) -> np.ndarray:
        """Loaded keys, sorted ascending."""
        return np.array(sorted(self._sizes), dtype=np.int64)

    def key_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(keys, sizes, node codes) as aligned arrays, sorted by key."""
        keys = self.keys
        sizes = np.array([self._sizes[int(k)] for k in keys], dtype=np.int64)
        nodes = np.array([self._nodes[int(k)] for k in keys], dtype=np.int8)
        return keys, sizes, nodes

    @property
    def dataset_bytes(self) -> int:
        """Total payload bytes of loaded records."""
        return sum(self._sizes.values())

    def fast_bytes(self) -> int:
        """Payload bytes currently on FastMem."""
        return sum(s for k, s in self._sizes.items() if self._nodes[k] == FAST)
