"""Workload specifications and request traces.

A :class:`WorkloadSpec` is the declarative description (distribution,
read:write ratio, size model, scale); :func:`~repro.ycsb.generator.generate_trace`
turns it into a concrete :class:`Trace` — the "key sequence and request
types" artefact Mnemo takes as its workload descriptor input (Section
IV): every engine takes the caller's trace as given.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from repro.errors import ConfigurationError, WorkloadError
from repro.ycsb.distributions import DistributionSpec
from repro.ycsb.sizes import SizeModel


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative description of a YCSB-style workload.

    Parameters
    ----------
    name:
        Workload identifier (Table III names for the presets).
    distribution:
        Key-popularity distribution.
    read_fraction:
        Fraction of requests that are reads (1.0 = read-only,
        0.5 = Table III "50:50 updateheavy").
    size_model:
        Per-key record-size distribution.
    n_keys / n_requests:
        Scale; the paper uses 10,000 keys and 100,000 requests.
    seed:
        Base seed; sub-streams for keys/ops/sizes are derived from it.
    scan_fraction / scan_max_length:
        YCSB workload-E-style range scans: each scan starts at the
        drawn key and reads up to ``scan_max_length`` consecutive keys
        (uniform length, as YCSB's default).  Scans are expanded into
        per-key read requests at generation time, so the rest of the
        pipeline — including the estimate model — sees ordinary reads.
    """

    name: str
    distribution: DistributionSpec
    read_fraction: float
    size_model: SizeModel
    n_keys: int = 10_000
    n_requests: int = 100_000
    seed: int = 42
    scan_fraction: float = 0.0
    scan_max_length: int = 1

    def __post_init__(self) -> None:
        if not 0 <= self.read_fraction <= 1:
            raise ConfigurationError(
                f"read_fraction must be in [0, 1], got {self.read_fraction}"
            )
        if self.n_keys <= 0 or self.n_requests <= 0:
            raise ConfigurationError("n_keys and n_requests must be positive")
        if not 0 <= self.scan_fraction <= 1:
            raise ConfigurationError(
                f"scan_fraction must be in [0, 1], got {self.scan_fraction}"
            )
        if self.scan_max_length < 1:
            raise ConfigurationError(
                f"scan_max_length must be >= 1, got {self.scan_max_length}"
            )
        if self.scan_fraction > 0 and self.read_fraction < 1.0 and \
                self.scan_fraction > self.read_fraction:
            raise ConfigurationError(
                "scan_fraction cannot exceed read_fraction (scans are reads)"
            )

    def scaled(self, n_keys: int | None = None,
               n_requests: int | None = None) -> "WorkloadSpec":
        """Copy of this spec at a different scale (same seed/shape)."""
        return replace(
            self,
            n_keys=n_keys if n_keys is not None else self.n_keys,
            n_requests=n_requests if n_requests is not None else self.n_requests,
        )

    def with_seed(self, seed: int) -> "WorkloadSpec":
        """Copy with a different base seed."""
        return replace(self, seed=seed)


@dataclass(frozen=True)
class Trace:
    """A concrete request trace over a dataset.

    Attributes
    ----------
    name:
        Originating workload name.
    keys:
        Per-request key ids, dense in ``0 .. n_keys-1`` (int64).
    is_read:
        Per-request operation type (True = read).
    record_sizes:
        Per-*key* record sizes in bytes (int64, length ``n_keys``).
    """

    name: str
    keys: np.ndarray
    is_read: np.ndarray
    record_sizes: np.ndarray

    def __post_init__(self) -> None:
        if self.keys.ndim != 1 or self.is_read.ndim != 1:
            raise WorkloadError("keys and is_read must be 1-D")
        if self.keys.shape != self.is_read.shape:
            raise WorkloadError("keys and is_read must align")
        if self.record_sizes.ndim != 1 or self.record_sizes.size == 0:
            raise WorkloadError("record_sizes must be a non-empty 1-D array")
        if self.keys.size:
            if self.keys.min() < 0 or self.keys.max() >= self.record_sizes.size:
                raise WorkloadError("trace references keys outside the dataset")
        if (self.record_sizes <= 0).any():
            raise WorkloadError("record sizes must be positive")

    # -- views -----------------------------------------------------------------

    @property
    def n_requests(self) -> int:
        """Number of requests."""
        return self.keys.size

    @property
    def n_keys(self) -> int:
        """Size of the key space."""
        return self.record_sizes.size

    @property
    def n_reads(self) -> int:
        """Number of read requests."""
        return int(self.is_read.sum())

    @property
    def n_writes(self) -> int:
        """Number of write requests."""
        return self.n_requests - self.n_reads

    @property
    def read_fraction(self) -> float:
        """Observed read fraction."""
        return self.n_reads / self.n_requests if self.n_requests else 0.0

    @property
    def dataset_bytes(self) -> int:
        """Total payload bytes of the dataset."""
        return int(self.record_sizes.sum())

    @property
    def request_sizes(self) -> np.ndarray:
        """Per-request record sizes (gathered view)."""
        return self.record_sizes[self.keys]

    def touched_keys(self) -> np.ndarray:
        """Distinct keys referenced, ascending."""
        return np.unique(self.keys)

    def _op_counts(self, where=None) -> tuple[np.ndarray, np.ndarray]:
        # one bincount: key k's writes in slot 2k, its reads in 2k + 1
        # (a bool *where* weighs each request 1 or 0)
        table = np.bincount(self.keys * 2 + self.is_read, where,
                            minlength=2 * self.n_keys)
        writes, reads = table.astype(np.int64, copy=False).reshape(-1, 2).T
        return reads.copy(), writes.copy()

    @cached_property
    def digest(self) -> str:
        """Content digest (:func:`~repro.runner.fingerprint.trace_fingerprint`),
        hashed once per trace: every fingerprint, store key and noise
        root of a measurement of this trace starts from it."""
        from repro.runner.fingerprint import trace_fingerprint

        return trace_fingerprint(self)

    @cached_property
    def _per_key_counts(self) -> tuple[np.ndarray, np.ndarray]:
        # cached_property writes straight into __dict__, bypassing the
        # frozen-dataclass setattr guard; arrays are returned read-only
        # so the shared cache can never be mutated through a caller
        reads, writes = self._op_counts()
        reads.flags.writeable = writes.flags.writeable = False
        return reads, writes

    def per_key_counts(self, where=None) -> tuple[np.ndarray, np.ndarray]:
        """(reads, writes) per key id, each of length ``n_keys``.

        Over the whole trace, computed once per trace and cached; the
        returned arrays are read-only views of the cache.  Over the
        requests a per-request bool *where* selects (e.g. the LLC
        misses), fresh arrays.
        """
        if where is None:
            return self._per_key_counts
        return self._op_counts(where)

    def access_counts(self) -> np.ndarray:
        """Requests per key id (reads + writes), a fresh array.

        Built from the cached :meth:`per_key_counts` on every call
        rather than cached itself, so a memoized trace pins no third
        key-long array.
        """
        reads, writes = self._per_key_counts
        return reads + writes

    @cached_property
    def hot_order(self) -> tuple[np.ndarray, np.ndarray]:
        """(keys by access count, descending, ties by ascending id; their
        cumulative payload bytes) — computed once, read-only: one sort of
        distinct ``(max - count) << bits | key`` int64 words, which is a
        stable argsort of the counts descending at a fifth of its time."""
        counts = self.access_counts()
        bits, top = (self.n_keys - 1).bit_length(), int(counts.max())
        if top.bit_length() + bits < 63:
            words = (top - counts) << bits | np.arange(self.n_keys)
            order = np.sort(words) & ((1 << bits) - 1)
        else:
            order = np.argsort(-counts, kind="stable")
        cum_bytes = np.cumsum(self.record_sizes[order])
        order.flags.writeable = False
        cum_bytes.flags.writeable = False
        return order, cum_bytes

    def first_touch_order(self) -> np.ndarray:
        """Keys in order of first access; untouched keys appended by id.

        This is the incremental-sizing order stand-alone Mnemo uses
        ("with the keys as they get accessed (touched) by the workload
        access pattern", Fig 2a).
        """
        n = self.n_requests
        # first[k] = position of key k's first request (n if never
        # requested); minimum.at, because fancy assignment does not
        # promise which of several writes to one slot wins
        first = np.full(self.n_keys, n)
        np.minimum.at(first, self.keys, np.arange(n))
        touched = first < n
        return np.concatenate([
            self.keys[np.sort(first[touched])],
            np.flatnonzero(~touched).astype(self.keys.dtype),
        ])
