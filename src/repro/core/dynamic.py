"""Periodic re-tiering simulation (extension).

Mnemo provides "a static key allocation, with no support for dynamic
data migration" (Section IV).  The drift module measures what an
*ideal* migrating tier would gain; this module prices the realistic
version: re-run the Pattern Engine every window and migrate the
placement diff over the memory bus, charging the copy time against the
gains.  The result quantifies when the paper's static-only scope is the
right call (stationary workloads: migration is pure overhead) and when
it genuinely leaves money on the table (News-Feed-style drift).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.units import NS_PER_S
from repro.ycsb.workload import Trace
from repro.core.drift import window_counts
from repro.core.pattern import budget_mask
from repro.core.sensitivity import PerformanceBaselines


@dataclass(frozen=True)
class RetieringOutcome:
    """Static vs periodically re-tiered execution, estimated."""

    workload: str
    n_windows: int
    capacity_fraction: float
    static_runtime_ns: float
    dynamic_runtime_ns: float     # includes migration time
    migration_ns: float           # total copy time charged
    migrated_bytes: int

    @property
    def static_throughput_ops_s(self) -> float:
        """Estimated throughput of the static placement."""
        return self._thr(self.static_runtime_ns)

    @property
    def dynamic_throughput_ops_s(self) -> float:
        """Estimated throughput with periodic re-tiering."""
        return self._thr(self.dynamic_runtime_ns)

    def _thr(self, runtime: float) -> float:
        return self.n_requests / (runtime / NS_PER_S)

    n_requests: int = 0

    @property
    def speedup(self) -> float:
        """Dynamic over static throughput (>1 = migration pays off)."""
        return self.static_runtime_ns / self.dynamic_runtime_ns

    @property
    def worth_migrating(self) -> bool:
        """True when re-tiering wins even after paying for the copies."""
        return self.speedup > 1.0


def simulate_periodic_retiering(
    trace: Trace,
    baselines: PerformanceBaselines,
    capacity_fraction: float = 0.2,
    n_windows: int = 10,
    migration_bandwidth_gbps: float = 1.81,
) -> RetieringOutcome:
    """Estimate static vs per-window re-tiered execution.

    Both variants use the same analytic model (per-request savings from
    the measured baselines).  The dynamic variant recomputes the
    placement each window from that window's counts and pays
    ``moved bytes / migration bandwidth`` per transition — migrations
    stream over the SlowMem link, so its Table I bandwidth is the
    default.

    Notes
    -----
    The dynamic variant is *clairvoyant within the window* (it places
    using the window's own counts); a production migrator would predict
    from the previous window.  This makes the outcome an upper bound on
    realistic migration gains — strengthening the conclusion whenever
    static wins anyway.
    """
    if not 0 < capacity_fraction <= 1:
        raise ConfigurationError("capacity_fraction must be in (0, 1]")
    if migration_bandwidth_gbps <= 0:
        raise ConfigurationError("migration bandwidth must be positive")

    sizes = trace.record_sizes
    budget = int(capacity_fraction * sizes.sum())
    read_delta = baselines.read_delta_ns
    write_delta = baselines.write_delta_ns
    read_frac = trace.read_fraction

    counts = window_counts(trace, n_windows)
    total_counts = counts.sum(axis=0)

    def window_savings(mask: np.ndarray, window: np.ndarray) -> float:
        """Runtime saved in one window by FastMem placement *mask*.

        Reads and writes are split by the trace-wide ratio (windows are
        slices of the same request mix).
        """
        fast_requests = float(window[mask].sum())
        return fast_requests * (read_frac * read_delta
                                + (1 - read_frac) * write_delta)

    # static: one placement from the global pattern
    static_mask = budget_mask(total_counts, sizes, budget)
    static_savings = sum(window_savings(static_mask, w) for w in counts)
    static_runtime = baselines.slow_runtime_ns - static_savings

    # dynamic: per-window placement + migration charges
    dynamic_savings = 0.0
    migrated_bytes = 0
    prev_mask = np.zeros(sizes.size, dtype=bool)
    for w in counts:
        mask = budget_mask(w, sizes, budget)
        dynamic_savings += window_savings(mask, w)
        moved = mask & ~prev_mask  # promotions; demotions overlap the copy
        migrated_bytes += int(sizes[moved].sum())
        prev_mask = mask
    migration_ns = migrated_bytes / migration_bandwidth_gbps
    dynamic_runtime = (baselines.slow_runtime_ns - dynamic_savings
                       + migration_ns)

    return RetieringOutcome(
        workload=trace.name,
        n_windows=n_windows,
        capacity_fraction=capacity_fraction,
        static_runtime_ns=float(static_runtime),
        dynamic_runtime_ns=float(dynamic_runtime),
        migration_ns=float(migration_ns),
        migrated_bytes=migrated_bytes,
        n_requests=trace.n_requests,
    )
