"""Memory node model.

A :class:`MemoryNode` is one memory component of the hybrid system — DRAM
("FastMem") or emulated NVM ("SlowMem").  It carries the device timing
parameters used by the access cost model and its capacity.  A node is a
value: it holds no occupancy, so one system can host any number of
deployments (:class:`~repro.kvstore.server.HybridDeployment` checks a
placement's payload against ``capacity_bytes``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import gbps_to_bytes_per_ns


class NodeKind(enum.Enum):
    """Which tier a node belongs to."""

    FAST = "fast"
    SLOW = "slow"


@dataclass(frozen=True)
class MemoryNode:
    """One memory component of a hybrid memory system.

    Parameters
    ----------
    name:
        Human-readable identifier (``"FastMem"`` / ``"SlowMem"``).
    kind:
        Tier of the node (:class:`NodeKind`).
    latency_ns:
        Idle access latency in nanoseconds (Table I: 65.7 for DRAM,
        238.1 for the throttled node).
    bandwidth_gbps:
        Sustained bandwidth in GB/s (Table I: 14.9 / 1.81).
    capacity_bytes:
        Total capacity of the node.
    """

    name: str
    kind: NodeKind
    latency_ns: float
    bandwidth_gbps: float
    capacity_bytes: int

    def __post_init__(self) -> None:
        if self.latency_ns <= 0:
            raise ConfigurationError(f"latency must be positive, got {self.latency_ns}")
        if self.bandwidth_gbps <= 0:
            raise ConfigurationError(
                f"bandwidth must be positive, got {self.bandwidth_gbps}"
            )
        if self.capacity_bytes <= 0:
            raise ConfigurationError(
                f"capacity must be positive, got {self.capacity_bytes}"
            )

    # -- degradation ---------------------------------------------------------

    def degraded(
        self, latency_factor: float = 1.0, bandwidth_factor: float = 1.0,
    ) -> "MemoryNode":
        """A copy of this node with worse device timing.

        ``latency_factor`` multiplies latency (>= 1 makes it slower);
        ``bandwidth_factor`` multiplies bandwidth (<= 1 makes it
        slower).  A degraded node models a different steady state, not
        a live migration.  Used by what-if studies and the fault layer's
        steady-state degradation scenarios (:mod:`repro.faults`).
        """
        if latency_factor <= 0 or bandwidth_factor <= 0:
            raise ConfigurationError(
                "degradation factors must be positive, got "
                f"latency_factor={latency_factor}, "
                f"bandwidth_factor={bandwidth_factor}"
            )
        return MemoryNode(
            name=self.name,
            kind=self.kind,
            latency_ns=self.latency_ns * latency_factor,
            bandwidth_gbps=self.bandwidth_gbps * bandwidth_factor,
            capacity_bytes=self.capacity_bytes,
        )

    # -- timing --------------------------------------------------------------

    @property
    def bytes_per_ns(self) -> float:
        """Bandwidth expressed in bytes per nanosecond."""
        return gbps_to_bytes_per_ns(self.bandwidth_gbps)

    def access_time_ns(self, nbytes: float) -> float:
        """Raw device time to move *nbytes*: ``latency + nbytes / bandwidth``.

        This is the noise-free cost of a single access touching *nbytes*
        of data on this node; the :class:`~repro.memsim.timing.AccessTimer`
        layers cache effects, per-engine pass counts and noise on top.
        """
        return self.latency_ns + float(nbytes) / self.bytes_per_ns

    # -- derived metrics -----------------------------------------------------

    def slowdown_factors(self, other: "MemoryNode") -> tuple[float, float]:
        """Return (bandwidth factor, latency factor) of *self* vs *other*.

        Matches the Table I ``B:x L:y`` notation: SlowMem relative to
        FastMem is ``B:0.12 L:3.62``.
        """
        return (
            self.bandwidth_gbps / other.bandwidth_gbps,
            self.latency_ns / other.latency_ns,
        )
