"""The Estimate Engine.

"Mnemo calculates the workload's throughput for incremental tiering of
the key space across FastMem and SlowMem ... It then correlates the
throughput to the system cost" (Section IV).

The analytical model starts from the measured SlowMem-only runtime and
subtracts, for every request whose key is tiered into FastMem, the
average per-request saving observed between the two baselines:

    runtime(prefix) = SlowRuntime
                      - reads_fast  * (SlowReadTime  - FastReadTime)
                      - writes_fast * (SlowWriteTime - FastWriteTime)

    throughput(prefix)  = Requests / runtime(prefix)
    avg_latency(prefix) = runtime(prefix) / Requests

(The paper prints the throughput relation with the fraction inverted;
we implement the dimensionally consistent form.)  The cost factor of a
prefix follows the Section II model with the prefix's cumulative bytes
as the FastMem capacity.  The whole sweep — one curve point per key —
is three cumulative sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.cost.model import DEFAULT_PRICE_FACTOR, cost_reduction_factor
from repro.errors import EstimateError
from repro.units import NS_PER_S
from repro.core.pattern import KeyAccessPattern
from repro.core.sensitivity import PerformanceBaselines


@dataclass(frozen=True)
class EstimateCurve:
    """Mnemo's output: one point per incremental key tiering.

    Point ``i`` describes the configuration where the first ``i`` keys
    of the tiering order live in FastMem (point 0 = SlowMem-only; point
    ``n_keys`` = FastMem-only).  Arrays all have ``n_keys + 1`` entries.
    """

    workload: str
    engine: str
    order: np.ndarray             # key ids, tiering priority (n_keys,)
    fast_bytes: np.ndarray        # cumulative FastMem capacity (n+1,)
    cost_factor: np.ndarray       # R(p) per point (n+1,)
    runtime_ns: np.ndarray        # estimated runtime (n+1,)
    n_requests: int
    p: float

    # -- derived ------------------------------------------------------------------

    @property
    def n_keys(self) -> int:
        """Number of keys in the tiering order."""
        return self.order.size

    @property
    def throughput_ops_s(self) -> np.ndarray:
        """Estimated throughput per point."""
        return self.n_requests / (self.runtime_ns / NS_PER_S)

    @property
    def avg_latency_ns(self) -> np.ndarray:
        """Estimated average request latency per point."""
        return self.runtime_ns / self.n_requests

    @property
    def capacity_ratio(self) -> np.ndarray:
        """FastMem bytes / total bytes per point (0..1)."""
        return self.fast_bytes / self.fast_bytes[-1]

    # -- lookups ------------------------------------------------------------------

    def point_for_keys(self, n_fast_keys: int) -> dict[str, float]:
        """The curve point where the first *n_fast_keys* keys are fast."""
        if not 0 <= n_fast_keys <= self.n_keys:
            raise EstimateError(
                f"n_fast_keys must be in [0, {self.n_keys}], got {n_fast_keys}"
            )
        i = n_fast_keys
        return {
            "n_fast_keys": float(i),
            "fast_bytes": float(self.fast_bytes[i]),
            "cost_factor": float(self.cost_factor[i]),
            "runtime_ns": float(self.runtime_ns[i]),
            "throughput_ops_s": float(self.throughput_ops_s[i]),
            "avg_latency_ns": float(self.avg_latency_ns[i]),
        }

    def keys_for_ratio(self, ratio: float) -> int:
        """Smallest prefix whose FastMem share reaches *ratio* (0..1)."""
        if not 0 <= ratio <= 1:
            raise EstimateError(f"ratio must be in [0, 1], got {ratio}")
        return int(np.searchsorted(self.capacity_ratio, ratio, side="left"))

    def throughput_at_cost(self, r: float) -> float:
        """Interpolated estimated throughput at cost factor *r*."""
        lo, hi = float(self.cost_factor[0]), float(self.cost_factor[-1])
        if not lo <= r <= hi:
            raise EstimateError(
                f"cost factor {r} outside the curve's range [{lo:.3f}, {hi:.3f}]"
            )
        return float(np.interp(r, self.cost_factor, self.throughput_ops_s))

    # -- output (Section IV "Interfacing with Mnemo") --------------------------------

    def write_csv(self, path: str | Path) -> Path:
        """Write the paper's 3-column CSV: key id, estimate, cost factor.

        Row *i* holds key ``order[i]`` and describes the configuration
        where FastMem serves all keys up to and including that row.
        """
        import csv

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        thr = self.throughput_ops_s
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["key", "estimated_throughput_ops_s", "cost_factor"])
            for i, key in enumerate(self.order.tolist(), start=1):
                writer.writerow([key, f"{thr[i]:.3f}", f"{self.cost_factor[i]:.6f}"])
        return path


class EstimateEngine:
    """Runs the analytical model over a pattern + baselines pair."""

    def __init__(self, p: float = DEFAULT_PRICE_FACTOR):
        self.p = p

    def estimate(
        self,
        baselines: PerformanceBaselines,
        pattern: KeyAccessPattern,
    ) -> EstimateCurve:
        """Produce the cost/performance trade-off curve."""
        slow = baselines.slow
        n_requests = slow.n_requests
        if n_requests <= 0:
            raise EstimateError("baselines cover an empty workload")

        cum_reads = np.concatenate(([0], np.cumsum(pattern.ordered_reads())))
        cum_writes = np.concatenate(([0], np.cumsum(pattern.ordered_writes())))
        cum_bytes = np.concatenate(
            ([0], np.cumsum(pattern.ordered_sizes(), dtype=np.int64))
        )

        runtime = (
            baselines.slow_runtime_ns
            - cum_reads * baselines.read_delta_ns
            - cum_writes * baselines.write_delta_ns
        )
        if (runtime <= 0).any():
            raise EstimateError(
                "estimated runtime went non-positive; baselines are inconsistent"
            )
        total = cum_bytes[-1]
        cost = cost_reduction_factor(cum_bytes, total, self.p)

        return EstimateCurve(
            workload=slow.workload,
            engine=slow.engine,
            order=pattern.order,
            fast_bytes=cum_bytes.astype(np.float64),
            cost_factor=np.asarray(cost, dtype=np.float64),
            runtime_ns=runtime,
            n_requests=n_requests,
            p=self.p,
        )
