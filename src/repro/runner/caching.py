"""A measuring client with content-addressed memoization.

:class:`CachingClient` is a drop-in :class:`~repro.ycsb.client.YCSBClient`
that consults a :class:`~repro.store.SQLiteStore` before measuring
and persists what it measures.  Because the base client derives its noise
streams from the experiment fingerprint, a cached result is *bit-identical*
to the measurement it replaced — caching changes wall-clock time, never
numbers.

Clients seeded with a live :class:`numpy.random.Generator` are inherently
non-reproducible, so they bypass the cache entirely (every call measures
fresh, exactly like the base class).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro import telemetry
from repro.runner.cache import ensure_cache
from repro.runner.fingerprint import digest, experiment_fingerprinter
from repro.ycsb.client import DEFAULT_PERCENTILES, RunResult, YCSBClient
from repro.ycsb.workload import Trace

if TYPE_CHECKING:
    from repro.store.store import SQLiteStore


def hitmask_fingerprint(trace_digest: str, capacity_bytes: int) -> str:
    """Cache key of an LLC hit mask (pure function of these two inputs)."""
    return digest({"trace": trace_digest, "capacity_bytes": capacity_bytes})[:32]


class PlacementBatch:
    """Batch-grained cached measurement of many placements of one trace.

    The batch kernel's construction (tables, counts, trace hash, LLC
    replay) is the only per-*batch* cost of ``execute_placements`` — and
    it is pure waste when every placement in the batch is already
    cached.  ``PlacementBatch`` probes the cache by fingerprint first
    (fingerprints come from
    :func:`~repro.runner.fingerprint.experiment_fingerprint_parts`, no
    kernel needed) and constructs the
    :class:`~repro.memsim.kernel.BatchKernel` lazily on the first miss,
    so warm sweeps skip the tables and the LLC replay entirely.

    Works over a caching or a plain client: without a cache (or with a
    live-generator seed, which is uncacheable) every placement measures
    fresh through the kernel with provenance ``"uncached"``.

    This is also the unit of work the sweep runner executes — one
    ``PlacementBatch`` per (trace, engine) batch
    (:func:`repro.runner.executor.run_batch`).
    """

    def __init__(self, client, trace, profile, system, record_sizes=None):
        self.client = client
        self.trace = trace
        self.profile = profile
        self.system = system
        self.record_sizes = record_sizes
        self._kernel = None
        self._live_seed = isinstance(client.seed, np.random.Generator)
        if self._live_seed:
            telemetry.count("memsim.fallback", reason="live_seed")
        self._cache = (
            None if self._live_seed else getattr(client, "cache", None)
        )
        self._digest = (
            None if self._live_seed else client.trace_digest(trace)
        )
        self._fingerprints = None

    def fingerprint(self, placement: np.ndarray) -> str | None:
        """One placement's experiment fingerprint, without a kernel.

        Identical to what ``BatchKernel.fingerprint`` computes; ``None``
        for live-seeded clients.  The parts every placement shares are
        canonicalized once per batch.
        """
        if self._live_seed:
            return None
        from repro.memsim.kernel import check_placement

        if self._fingerprints is None:
            self._fingerprints = experiment_fingerprinter(
                self._digest, self.profile, self.system, self.client,
            )
        return self._fingerprints(check_placement(
            placement, self.trace.n_keys, len(self.system.nodes),
        ))

    def kernel(self):
        """The batch kernel, constructed on first use."""
        if self._kernel is None:
            from repro.memsim.kernel import BatchKernel

            self._kernel = BatchKernel(
                self.client, self.trace, self.profile, self.system,
                record_sizes=self.record_sizes,
            )
        return self._kernel

    def run_all_cached(self, placements) -> list[tuple[RunResult, str]]:
        """Measure (or recall) placements; ``(result, provenance)`` each.

        Every fingerprint is probed first; the misses (each distinct
        fingerprint once) go to the kernel's
        :meth:`~repro.memsim.kernel.BatchKernel.run_all` in one call, and
        their results are stored after it returns.  Hit and miss counts
        are those of probing the masks one at a time.
        """
        masks = list(placements)
        if self._cache is None:
            return [(r, "uncached") for r in self.kernel().run_all(masks)]
        fps = [self.fingerprint(mask) for mask in masks]
        found: dict[str, tuple[RunResult, str]] = {}
        misses: dict[str, np.ndarray] = {}
        for fp, mask in zip(fps, masks):
            if fp not in found and fp not in misses:
                result = self._cache.get_result(fp)
                if result is None:
                    misses[fp] = mask
                else:
                    found[fp] = (result, "cache")
        self.client.cache_hits += len(masks) - len(misses)
        self.client.cache_misses += len(misses)
        if misses:
            telemetry.count("cache.recompute", len(misses), kind="results")
            results = self.kernel().run_all(
                list(misses.values()), list(misses),
            )
            for fp, result in zip(misses, results):
                self._cache.put_result(fp, result)
                found[fp] = (result, "computed")
        return [found[fp] for fp in fps]

    def run_cached(self, placement: np.ndarray) -> tuple[RunResult, str]:
        """Measure (or recall) one placement; returns (result, provenance)."""
        (entry,) = self.run_all_cached([placement])
        return entry


class CachingClient(YCSBClient):
    """YCSB client that memoizes measurements in the result store.

    Parameters
    ----------
    cache:
        A :class:`~repro.store.SQLiteStore`, the path of its file, or
        None for a store in the default location (``mnemo.db``).  All
        other parameters match :class:`~repro.ycsb.client.YCSBClient`.
    """

    def __init__(
        self,
        cache: SQLiteStore | str | None = None,
        repeats: int = 3,
        noise_sigma: float = 0.01,
        use_llc: bool = False,
        percentiles: tuple[float, ...] = DEFAULT_PERCENTILES,
        seed=None,
        concurrency: int = 1,
        contention: float = 0.15,
        faults=None,
    ):
        super().__init__(
            repeats=repeats,
            noise_sigma=noise_sigma,
            use_llc=use_llc,
            percentiles=percentiles,
            seed=seed,
            concurrency=concurrency,
            contention=contention,
            faults=faults,
        )
        if cache is None:
            from repro.store.store import DEFAULT_STORE_PATH

            cache = DEFAULT_STORE_PATH
        self.cache = ensure_cache(cache)
        self.cache_hits = 0
        self.cache_misses = 0

    @classmethod
    def wrap(
        cls, client: YCSBClient, cache: SQLiteStore | str | None,
    ) -> "CachingClient":
        """A caching client with the same settings as *client*.

        Passing an already-caching client just repoints its cache.
        """
        return cls(
            cache=cache,
            repeats=client.repeats,
            noise_sigma=client.noise.sigma,
            use_llc=client.use_llc,
            percentiles=client.percentiles,
            seed=client.seed,
            concurrency=client.concurrency,
            contention=client.contention,
            faults=getattr(client, "faults", None),
        )

    def _cache_mask(self, trace: Trace, llc, trace_digest: str | None):
        """Hit mask lookup: in-memory memo, then disk, then the LRU."""
        if not self.use_llc or trace_digest is None:
            return super()._cache_mask(trace, llc, trace_digest)
        key = (trace_digest, llc.capacity_bytes)
        hits = self._hitmask_memo.get(key)
        if hits is not None:
            return hits, llc.hit_latency_ns
        fp = hitmask_fingerprint(trace_digest, llc.capacity_bytes)
        hits = self.cache.get_hitmask(fp)
        if hits is None:
            hits, _ = super()._cache_mask(trace, llc, trace_digest)
            self.cache.put_hitmask(fp, hits)
        else:
            hits.flags.writeable = False
            self._hitmask_memo[key] = hits
        return hits, llc.hit_latency_ns

    def execute_placements(
        self, trace, placements, profile, system, record_sizes=None,
    ):
        """Batch measurement with batch-grained cache probes.

        Each placement is looked up under its experiment fingerprint
        (:meth:`~repro.ycsb.client.YCSBClient.execute` is the one-mask
        case, so it shares the namespace); only the misses run through
        the kernel — and the kernel itself (tables, counts, LLC
        replay) is only constructed if there *is* a miss, so fully warm
        batches cost probes alone (see :class:`PlacementBatch`).
        """
        batch = PlacementBatch(
            self, trace, profile, system, record_sizes=record_sizes
        )
        return [result for result, _ in batch.run_all_cached(placements)]
