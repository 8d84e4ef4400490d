"""What an experiment is: the runner's picklable input types.

An :class:`ExperimentSpec` names one cell of a workload x store x
placement grid (engines by profile name, so specs cross process
boundaries and no engine is ever instantiated to measure one), a
:class:`ClientConfig` the measuring client every cell shares.

Placements:

``"fast"``
    Every record on FastMem (the best-case baseline).
``"slow"``
    Every record on SlowMem (the worst-case baseline).
``"split"``
    The hottest keys — ranked by access count, ties broken by key id —
    on FastMem up to ``fast_fraction`` of the total payload bytes (a
    Fig 5-style capacity sweep point).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError
from repro.kvstore.profiles import profile_for
from repro.rng import check_seed
from repro.ycsb.client import DEFAULT_PERCENTILES, YCSBClient
from repro.ycsb.workload import Trace, WorkloadSpec

if TYPE_CHECKING:
    from repro.store.store import SQLiteStore

#: Placement modes an :class:`ExperimentSpec` may request.
PLACEMENTS = ("fast", "slow", "split")


@dataclass(frozen=True)
class ClientConfig:
    """Picklable description of a measuring client.

    Mirrors the :class:`~repro.ycsb.client.YCSBClient` constructor, but
    the seed must be an integer (or None): live generators can be
    neither pickled nor fingerprinted.  ``faults`` is an optional
    :class:`~repro.faults.FaultSpec` — a frozen dataclass, so the config
    stays picklable and fingerprintable with faults attached.
    """

    repeats: int = 3
    noise_sigma: float = 0.01
    use_llc: bool = False
    percentiles: tuple[float, ...] = DEFAULT_PERCENTILES
    seed: int | None = None
    concurrency: int = 1
    contention: float = 0.15
    faults: object | None = None

    def __post_init__(self) -> None:
        # here, not in the built YCSBClient: a sweep must fail before
        # its first attempt, not once per attempt per cell
        check_seed(self.seed)

    def build(self, cache: SQLiteStore | None = None) -> YCSBClient:
        """Construct the client, over *cache* when one is supplied."""
        return YCSBClient(
            repeats=self.repeats,
            noise_sigma=self.noise_sigma,
            use_llc=self.use_llc,
            percentiles=self.percentiles,
            seed=self.seed,
            concurrency=self.concurrency,
            contention=self.contention,
            faults=self.faults,
            cache=cache,
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """One cell of an experiment grid (picklable, fingerprintable)."""

    workload: WorkloadSpec
    engine: str = "redis"
    placement: str = "slow"
    fast_fraction: float = 0.0

    def __post_init__(self) -> None:
        profile_for(self.engine)  # raises on an unknown engine name
        if self.placement not in PLACEMENTS:
            raise ConfigurationError(
                f"unknown placement {self.placement!r}; "
                f"choose from {PLACEMENTS}"
            )
        if not 0.0 <= self.fast_fraction <= 1.0:
            raise ConfigurationError(
                f"fast_fraction must be in [0, 1], got {self.fast_fraction}"
            )

    @property
    def label(self) -> str:
        """Short human-readable identifier for logs and tables."""
        tail = (
            f"split{self.fast_fraction:.2f}"
            if self.placement == "split" else self.placement
        )
        return f"{self.workload.name}/{self.engine}/{tail}"


def split_fast_keys(trace: Trace, fraction: float) -> np.ndarray:
    """Hottest keys filling *fraction* of the payload bytes.

    Keys are ranked by access count (descending, ties by ascending key
    id) and taken greedily while the cumulative payload stays within the
    byte budget — sizes are positive, so that is a prefix of the trace's
    :attr:`~repro.ycsb.workload.Trace.hot_order`.
    """
    order, cum_bytes = trace.hot_order
    budget = fraction * float(cum_bytes[-1])
    return order[:np.searchsorted(cum_bytes, budget, side="right")]
