"""The Pattern Engine.

"Analyzes the request access pattern of the workload, and establishes a
relationship between the keys and requests Req(keys)" (Section IV).

Three tiering orders are supported, matching the deployment scenarios of
Figure 2:

- ``touch`` (stand-alone Mnemo, Fig 2a): keys in the order the workload
  first touches them;
- ``weight`` (MnemoT, Fig 2c / Fig 7): keys by descending placement
  weight = accesses / key-value size, the methodology existing tiering
  solutions use — hot keys first, small keys advantaged;
- ``external`` (Fig 2b): a user-provided ordering from an existing
  generic tiering tool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.ycsb.workload import Trace

_MODES = ("touch", "weight", "external")


def weight_order(counts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """MnemoT's tiering order: keys by descending accesses / size.

    Ties keep ascending key id (a stable sort on the negated weights).
    This converts any input distribution "to look like zipfian"
    (Section V-A, "Estimate of MnemoT"): hot keys move to the front of
    the allocation order regardless of where they sit in the key space.
    """
    return np.argsort(-(counts / sizes), kind="stable").astype(np.int64)


def budget_mask(counts: np.ndarray, sizes: np.ndarray,
                budget: int) -> np.ndarray:
    """Boolean FastMem mask: the longest :func:`weight_order` prefix whose
    bytes fit in *budget*."""
    order = weight_order(counts, sizes)
    n_fit = int(np.searchsorted(np.cumsum(sizes[order]), budget, side="right"))
    mask = np.zeros(sizes.size, dtype=bool)
    mask[order[:n_fit]] = True
    return mask


@dataclass(frozen=True)
class KeyAccessPattern:
    """Req(keys): the per-key request profile plus a tiering order.

    All per-key arrays are indexed by *key id*; ``order`` lists key ids
    in FastMem-allocation priority (first element is placed first).
    """

    mode: str
    order: np.ndarray
    reads_per_key: np.ndarray
    writes_per_key: np.ndarray
    sizes: np.ndarray

    def __post_init__(self) -> None:
        n = self.sizes.size
        for arr_name in ("order", "reads_per_key", "writes_per_key"):
            arr = getattr(self, arr_name)
            if arr.shape != (n,):
                raise ConfigurationError(
                    f"{arr_name} must have one entry per key ({n}), "
                    f"got shape {arr.shape}"
                )
        ordered = np.sort(self.order)
        if not np.array_equal(ordered, np.arange(n)):
            raise ConfigurationError("order must be a permutation of the key space")

    @property
    def n_keys(self) -> int:
        """Size of the key space."""
        return self.sizes.size

    @property
    def accesses_per_key(self) -> np.ndarray:
        """reads + writes per key id."""
        return self.reads_per_key + self.writes_per_key

    def weights(self) -> np.ndarray:
        """MnemoT placement weights: accesses / size, per key id."""
        return self.accesses_per_key / self.sizes

    # -- ordered views (aligned with ``order``) ---------------------------------

    def ordered_reads(self) -> np.ndarray:
        """Reads per key, in tiering order."""
        return self.reads_per_key[self.order]

    def ordered_writes(self) -> np.ndarray:
        """Writes per key, in tiering order."""
        return self.writes_per_key[self.order]

    def ordered_sizes(self) -> np.ndarray:
        """Key-value sizes, in tiering order."""
        return self.sizes[self.order]


class PatternEngine:
    """Builds a :class:`KeyAccessPattern` from a workload trace.

    Parameters
    ----------
    mode:
        ``"touch"`` (Mnemo), ``"weight"`` (MnemoT) or ``"external"``.
    """

    def __init__(self, mode: str = "touch"):
        if mode not in _MODES:
            raise ConfigurationError(f"unknown mode {mode!r}; known: {_MODES}")
        self.mode = mode

    def analyze(
        self,
        trace: Trace,
        external_order: np.ndarray | None = None,
    ) -> KeyAccessPattern:
        """Analyze the request access pattern of *trace*.

        Parameters
        ----------
        external_order:
            Required (and only accepted) in ``external`` mode: the key
            ordering produced by an existing tiering solution.
        """
        if (external_order is not None) != (self.mode == "external"):
            raise ConfigurationError(
                "external_order must be given exactly when mode='external'"
            )
        reads, writes = trace.per_key_counts()
        sizes = trace.record_sizes

        if self.mode == "touch":
            order = trace.first_touch_order()
        elif self.mode == "weight":
            order = weight_order(trace.access_counts(), sizes)
        else:
            order = np.asarray(external_order, dtype=np.int64)

        return KeyAccessPattern(
            mode=self.mode,
            order=order,
            reads_per_key=reads,
            writes_per_key=writes,
            sizes=sizes,
        )
