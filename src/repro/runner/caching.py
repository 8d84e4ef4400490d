"""Content-addressed measurement: probe the result store, then measure.

:class:`PlacementBatch` is how every
:class:`~repro.ycsb.client.YCSBClient` measures: with a store
(``YCSBClient(cache=...)``) it consults the
:class:`~repro.store.SQLiteStore` before measuring and persists what it
measures.  Because the client derives its noise streams from the
experiment fingerprint, a recalled result is *bit-identical* to the
measurement it replaced — the store changes wall-clock time, never
numbers.

Clients seeded with a live :class:`numpy.random.Generator` are inherently
non-reproducible, so they bypass the store entirely (every call measures
fresh).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro import telemetry
from repro.runner.fingerprint import digest, experiment_fingerprinter

if TYPE_CHECKING:
    from repro.ycsb.client import RunResult


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

    Without a store on the client (or with a live-generator seed, which
    is uncacheable) every placement measures fresh through the kernel
    with provenance ``"uncached"``.

    It is the one measurement path: a client's
    :meth:`~repro.ycsb.client.YCSBClient.execute_placements` is one
    batch, and the sweep runner executes one ``PlacementBatch`` per
    (trace, engine) batch (:func:`repro.runner.executor.run_batch`),
    where it also wants each placement's provenance.
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
        self._cache = None if self._live_seed else client.cache
        self._digest = None if self._live_seed else trace.digest
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

    def run_all_cached(self, placements, fingerprints=None
                       ) -> list[tuple[RunResult, str]]:
        """Measure (or recall) placements; ``(result, provenance)`` each.

        Every fingerprint (*fingerprints*, if given, holds them, as
        :meth:`fingerprint` computes them) is probed in one read; the
        misses (each distinct fingerprint once) go to the kernel's
        :meth:`~repro.memsim.kernel.BatchKernel.run_all` in one call,
        and their results are stored in one transaction after it
        returns.  Hit and miss counts are those of probing the masks one
        at a time.
        """
        masks = list(placements)
        fps = ([self.fingerprint(mask) for mask in masks]
               if fingerprints is None else list(fingerprints))
        if self._cache is None:
            return [(r, "uncached") for r in self.kernel().run_all(masks, fps)]
        found = {fp: (result, "cache")
                 for fp, result in self._cache.get_results(fps).items()}
        misses: dict[str, np.ndarray] = {}
        for fp, mask in zip(fps, masks):
            if fp not in found:
                misses.setdefault(fp, mask)
        self.client.cache_hits += len(masks) - len(misses)
        self.client.cache_misses += len(misses)
        if misses:
            telemetry.count("cache.recompute", len(misses), kind="results")
            results = self.kernel().run_all(
                list(misses.values()), list(misses),
            )
            self._cache.put_results(zip(misses, results))
            found.update((fp, (result, "computed"))
                         for fp, result in zip(misses, results))
        return [found[fp] for fp in fps]
