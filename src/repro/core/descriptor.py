"""Workload descriptors — Mnemo's input format.

Mnemo "does not perform fine-grained execution monitoring.  Instead,
users are expected to provide ... a target workload descriptor,
comprised of ... key access distribution and request type sequence for
a given dataset" (Section IV).  A :class:`WorkloadDescriptor` is exactly
that: the key sequence, the per-request type, and the per-key value
sizes.  It is trivially obtained from a generated
:class:`~repro.ycsb.workload.Trace` or from the CSV pair written by
:mod:`repro.ycsb.trace_io`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.ycsb.workload import Trace


@dataclass(frozen=True)
class WorkloadDescriptor:
    """The user-supplied workload description.

    Attributes
    ----------
    name:
        Workload identifier.
    keys / is_read:
        The request sequence: key ids and operation types.
    record_sizes:
        Per-key value sizes (bytes).  MnemoT's Pattern Engine needs
        these for the accesses/size weights; stand-alone Mnemo only
        needs them to map key tierings to capacities.
    """

    name: str
    keys: np.ndarray
    is_read: np.ndarray
    record_sizes: np.ndarray

    # -- constructors ------------------------------------------------------------

    @classmethod
    def from_trace(cls, trace: Trace) -> "WorkloadDescriptor":
        """Wrap a generated trace."""
        return cls(
            name=trace.name,
            keys=trace.keys,
            is_read=trace.is_read,
            record_sizes=trace.record_sizes,
        )

    @classmethod
    def from_csv(
        cls, requests_path: str | Path, dataset_path: str | Path,
        name: str | None = None,
    ) -> "WorkloadDescriptor":
        """Load the CSV pair written by :func:`repro.ycsb.trace_io.save_trace_csv`."""
        from repro.ycsb.trace_io import load_trace_csv

        return cls.from_trace(load_trace_csv(requests_path, dataset_path, name))

    # -- views ----------------------------------------------------------------------

    def to_trace(self) -> Trace:
        """The equivalent :class:`Trace` (validates shapes on the way)."""
        return Trace(
            name=self.name,
            keys=self.keys,
            is_read=self.is_read,
            record_sizes=self.record_sizes,
        )

    @property
    def n_keys(self) -> int:
        """Size of the key space."""
        return self.record_sizes.size

    @property
    def n_requests(self) -> int:
        """Number of requests in the descriptor."""
        return self.keys.size

    @property
    def dataset_bytes(self) -> int:
        """Total payload of the dataset — Mnemo's fixed total capacity
        ("Mnemo uses a fixed total capacity to be the dataset size of
        the key-value store", Section IV)."""
        return int(self.record_sizes.sum())
