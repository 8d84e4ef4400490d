"""A storage-backed store — deliberately outside Mnemo's model.

Section V-A ("Target applications") scopes the estimation model to
*in-memory* stores: "We do not argue that the estimation model will
work for any data store, especially those engaging storage components."
This module provides the counterexample that makes the scoping claim
testable: an LSM-flavoured store whose dataset lives on disk behind an
in-memory block cache.

The hybrid-memory question still exists — the *block cache* is tiered
across FastMem and SlowMem — but per-request savings are now bimodal:
a cache hit saves the full memory delta while a miss is disk-dominated
and saves nothing.  Since hit probability correlates with exactly the
hot keys Mnemo places first, the uniform-average-savings assumption
breaks and the estimate error jumps by orders of magnitude (see
``bench_ablation_storage.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, WorkloadError
from repro.kvstore.profiles import EngineProfile
from repro.memsim.cache import LLCModel
from repro.memsim.kernel import measure_repeats
from repro.memsim.system import HybridMemorySystem
from repro.rng import SeedLike
from repro.ycsb.client import RunResult, YCSBClient
from repro.ycsb.workload import Trace

#: RocksDB-local-flavoured request costs: cheaper CPU path than the
#: DynamoDB envelope, one synchronous pass over cached values.
ROCKS_PROFILE = EngineProfile(
    name="rockslike",
    read_cpu_ns=40_000.0,
    write_cpu_ns=45_000.0,
    read_passes=1.0,
    write_passes=0.3,
    metadata_bytes=128,
)


@dataclass(frozen=True)
class StorageConfig:
    """Disk and cache parameters of the storage-backed store."""

    disk_latency_ns: float = 100_000.0      # NVMe-ish read latency
    disk_bandwidth_gbps: float = 0.5        # 500 MB/s sustained
    cache_fraction: float = 0.25            # block cache / dataset bytes

    def __post_init__(self) -> None:
        if self.disk_latency_ns <= 0 or self.disk_bandwidth_gbps <= 0:
            raise ConfigurationError("disk parameters must be positive")
        if not 0 < self.cache_fraction <= 1:
            raise ConfigurationError("cache_fraction must be in (0, 1]")


class StorageBackedStore:
    """LSM-flavoured store with a tiered in-memory block cache.

    Reads first probe the block cache (exact LRU over records); hits
    cost a memory access on the node holding the cached entry (FastMem
    or SlowMem per the placement mask), misses pay the disk and install
    the record.  Writes land in a DRAM memtable plus an amortised
    sequential WAL append; they are largely placement-insensitive.
    """

    def __init__(
        self,
        system: HybridMemorySystem,
        config: StorageConfig | None = None,
        profile: EngineProfile = ROCKS_PROFILE,
    ):
        self.system = system
        self.config = config if config is not None else StorageConfig()
        self.profile = profile

    # -- internals ---------------------------------------------------------------

    def _cache_hits(self, trace: Trace) -> np.ndarray:
        """Hit mask of a cold-started LRU block cache over the trace."""
        cache_bytes = max(
            1, int(self.config.cache_fraction * trace.record_sizes.sum())
        )
        lru = LLCModel(capacity_bytes=cache_bytes)
        return lru.process(trace.keys, trace.record_sizes[trace.keys])

    # -- execution -----------------------------------------------------------------

    def execute(
        self,
        trace: Trace,
        fast_mask: np.ndarray,
        repeats: int = 3,
        noise_sigma: float = 0.01,
        seed: SeedLike = None,
    ) -> RunResult:
        """Run *trace* with the block cache tiered per *fast_mask*."""
        fast_mask = np.asarray(fast_mask, dtype=bool)
        if fast_mask.shape != (trace.n_keys,):
            raise WorkloadError(
                f"fast_mask must cover every key ({trace.n_keys})"
            )
        # the measuring settings, validated before any work
        client = YCSBClient(repeats=repeats, noise_sigma=noise_sigma,
                            seed=seed, percentiles=())
        prof = self.profile
        cfg = self.config
        hits = self._cache_hits(trace)
        sizes = (trace.record_sizes[trace.keys]
                 + prof.metadata_bytes).astype(np.float64)
        on_fast = fast_mask[trace.keys]
        is_read = trace.is_read

        fast, slow = self.system.fast, self.system.slow
        mem_lat = np.where(on_fast, fast.latency_ns, slow.latency_ns)
        mem_bpns = np.where(on_fast, fast.bytes_per_ns, slow.bytes_per_ns)
        mem_ns = mem_lat + sizes / mem_bpns
        disk_ns = cfg.disk_latency_ns + sizes / cfg.disk_bandwidth_gbps

        # reads: cache hit -> tiered memory; miss -> disk + install
        read_ns = np.where(hits, prof.read_passes * mem_ns,
                           disk_ns + 0.2 * mem_ns)
        # writes: DRAM memtable + amortised sequential WAL append
        write_ns = (prof.write_passes
                    * (fast.latency_ns + sizes / fast.bytes_per_ns)
                    + sizes / cfg.disk_bandwidth_gbps)
        cpu = np.where(is_read, prof.read_cpu_ns, prof.write_cpu_ns)
        base_times = cpu + np.where(is_read, read_ns, write_ns)

        return measure_repeats(
            client, trace, prof.name,
            np.broadcast_to(base_times, (2, trace.n_requests)),
            np.stack((~is_read, is_read)), f"{trace.name}/storage",
        )

    def cache_hit_rate(self, trace: Trace) -> float:
        """Fraction of requests the block cache serves."""
        return float(self._cache_hits(trace).mean())
