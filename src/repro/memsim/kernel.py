"""Multi-placement batch simulation kernel.

Every sweep, validation replay and drift drill evaluates the *same trace*
against many placements, and a placement is fully described by one
array over the key space (:func:`check_placement`) — no
:class:`~repro.kvstore.server.HybridDeployment` is needed to measure
one.

:class:`BatchKernel` is the one way a placement is measured.  The
cost law is a function of (key, op, tier), so it is evaluated **once**,
as a ``(2, n_keys)`` service-time table per memory node (row 0 writes,
row 1 reads); the request index into the tables, the LLC hit mask and
the trace digest are placement-independent too.  Each placement then
costs a key-long select between the tables, one gather into request
order, a fingerprint over the placement, and one row-at-a-time
timing pass over a reusable buffer (:func:`measure_repeats`).
``YCSBClient.execute`` is the one-mask case of the same call.

Each placement's noise streams derive from its own experiment
fingerprint
(:func:`~repro.runner.fingerprint.experiment_fingerprint_parts`), base
times come from the shared :func:`~repro.memsim.timing.service_times_ns`
formula, and repeat ``r`` draws from
``derive_seed(seed, f"{label}/run{r}")`` — so a placement measures the
same :class:`~repro.ycsb.client.RunResult` alone, in any batch, in any
process, on any thread.  ``tests/memsim/test_kernel.py`` keeps the
per-repeat :class:`~repro.memsim.timing.AccessTimer` loop as the
reference the kernel must match bit for bit.

That purity is what lets :meth:`BatchKernel.run_all` spread a batch's
placements over the usable cores: the draws, ufuncs and partitions of a
placement release the GIL, and each thread writes only its own buffers.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from repro import telemetry
from repro.errors import WorkloadError
from repro.memsim.timing import service_tables, service_times_ns
from repro.rng import derive_seed, ensure_rng


#: The dtype of an integer placement: one tier index per key.
TIER_DTYPE = np.uint8


def check_placement(placement, n_keys: int, n_tiers: int) -> np.ndarray:
    """*placement* in its canonical form, or a ``WorkloadError``.

    A placement is a bool FastMem mask or one :data:`TIER_DTYPE` tier
    per key (0 = FastMem), of shape ``(n_keys,)``.  Its canonical form,
    which the fingerprint hashes, is the mask on two tiers (``tier ==
    0``) and tiers on more (a mask's other keys on SlowMem): one
    placement, one fingerprint, however it is spelled.
    """
    p = np.asarray(placement)
    if p.shape == (n_keys,) and p.dtype == np.bool_:
        return p if n_tiers == 2 else (~p).view(TIER_DTYPE)
    if p.shape == (n_keys,) and p.dtype == TIER_DTYPE and (
        p.size == 0 or p.max() < n_tiers
    ):
        return p == 0 if n_tiers == 2 else p
    raise WorkloadError(
        f"placement must be a bool mask or {np.dtype(TIER_DTYPE)} tiers in "
        f"[0, {n_tiers}) of shape ({n_keys},), got {p.dtype} {p.shape}"
    )


def placement_fingerprint(
    trace_digest: str, profile, placement, n_keys: int, system, client,
) -> str:
    """The experiment fingerprint of one placement of an *n_keys* trace:
    its canonical form (:func:`check_placement`), hashed."""
    from repro.runner.fingerprint import experiment_fingerprint_parts

    placement = check_placement(placement, n_keys, len(system.nodes))
    return experiment_fingerprint_parts(
        trace_digest, profile, placement, system, client,
    )


def _by_tier(masks, per_tier):
    """``per_tier[k]`` where ``masks[k]`` holds, else the slowest tier's."""
    out = per_tier[-1]
    for mask, value in zip(masks[::-1], per_tier[-2::-1]):
        out = np.where(mask, value, out)
    return out


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity set where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _quantile_plan(n: int, percentiles: tuple[float, ...]):
    """Which order statistics ``np.percentile`` would read, and its weights.

    Returns ``(ranks, lo, hi, gamma)``: the ascending distinct sorted
    positions needed, each percentile's two neighbours as indices into
    ``ranks``, and the interpolation weights as a column — NumPy's
    ``method="linear"`` virtual index ``(n - 1) * q / 100`` split into
    floor and fraction, with ``q == 100`` reading the maximum twice.
    """
    virtual = (n - 1) * np.true_divide(percentiles, 100)
    below = np.floor(virtual).astype(np.intp)
    above = np.minimum(below + 1, n - 1)
    ranks = np.unique(np.concatenate((below, above)))
    return (
        ranks,
        np.searchsorted(ranks, below),
        np.searchsorted(ranks, above),
        (virtual - below)[:, None],
    )


def _order_statistics(row: np.ndarray, ranks: np.ndarray, out: np.ndarray):
    """Write *row*'s order statistics at ascending *ranks* into *out*.

    Reorders *row*.  Each rank costs one single-``kth`` ``partition`` of
    what lies right of the previous one (everything there is already
    >= it), or just a ``min`` when the rank is the next position —
    single-``kth`` partitions take NumPy's vectorized quickselect, while
    one multi-``kth`` call falls back to a scalar introselect that is
    ~10x slower per row (docs/KERNEL.md §2).
    """
    start = 0
    for j, k in enumerate(ranks):
        tail = row[start:]
        if k == start:
            out[j] = tail.min()
        else:
            tail.partition(k - start)
            out[j] = row[k]
            start = k + 1


def measure_repeats(
    client,
    trace,
    engine: str,
    base_ns: np.ndarray,
    label: str,
    noise_scale: np.ndarray | None = None,
    read_idx: np.ndarray | None = None,
):
    """Realise *client*'s noise repeats over *base_ns* as one ``RunResult``.

    The timing pass behind :meth:`BatchKernel.run`; *base_ns* are the
    noise-free service times, *label* roots the noise streams,
    *noise_scale* optionally widens sigma per request (jitter faults),
    *read_idx* is ``flatnonzero(trace.is_read)`` if the caller holds it.

    One ``requests``-long buffer serves every repeat.  Repeat ``r``
    fills it with exactly what an
    :class:`~repro.memsim.timing.AccessTimer` seeded with
    ``derive_seed(seed, f"{label}/run{r}")`` would produce — the same
    draws, the same elementwise arithmetic in
    :meth:`~repro.memsim.timing.NoiseModel.apply`'s order — takes the
    row's sums, then partitions it for its order statistics.  Those go
    through ``np.percentile``'s own linear interpolation, so the result
    is bit-identical to reducing the full (repeats x requests) matrix
    with ``np.percentile(axis=1)`` (the oracle in
    ``tests/memsim/test_kernel.py``) without ever building it.
    """
    from repro.ycsb.client import RunResult  # lazy: import cycle

    repeats, sigma = client.repeats, client.noise.sigma
    percentiles = client.percentiles
    if read_idx is None:
        read_idx = np.flatnonzero(trace.is_read)
    n = base_ns.size
    n_reads = read_idx.size
    n_writes = n - n_reads
    row = np.empty(n)
    row_sums = np.empty(repeats)
    read_sums = np.empty(repeats)
    if percentiles:
        ranks, lo, hi, gamma = _quantile_plan(n, percentiles)
        stats = np.empty((ranks.size, repeats))
    for r in range(repeats):
        if sigma == 0.0:
            row[:] = base_ns
        else:
            rng = ensure_rng(derive_seed(client.seed, f"{label}/run{r}"))
            rng.standard_normal(n, out=row)
            if noise_scale is not None:
                row *= noise_scale
            row *= sigma
            row += 1.0
            np.maximum(row, 1e-3, out=row)
            row *= base_ns
        # sums before the partitions reorder the row: float addition
        # does not reassociate (of a read-only trace, the reads are the row)
        row_sums[r] = row.sum()
        read_sums[r] = row.take(read_idx).sum() if n_writes else row_sums[r]
        if percentiles:
            _order_statistics(row, ranks, stats[:, r])
    runtimes = row_sums / client.concurrency
    write_sums = row_sums - read_sums
    pct: dict[float, float] = {}
    if percentiles:
        # np.percentile's _lerp, operation for operation
        below, above = stats[lo], stats[hi]
        diff = above - below
        qs = below + diff * gamma
        np.subtract(above, diff * (1 - gamma), out=qs, where=gamma >= 0.5)
        pct = {q: float(qs[i].mean()) for i, q in enumerate(percentiles)}
    return RunResult(
        workload=trace.name,
        engine=engine,
        n_requests=trace.n_requests,
        n_reads=n_reads,
        n_writes=n_writes,
        runtime_ns=float(runtimes.mean()),
        avg_read_ns=float(read_sums.mean() / n_reads) if n_reads else 0.0,
        avg_write_ns=float(write_sums.mean() / n_writes) if n_writes else 0.0,
        latency_percentiles_ns=pct,
        repeats=repeats,
        runtime_std_ns=float(runtimes.std()),
        concurrency=client.concurrency,
    )


class BatchKernel:
    """Evaluates many placements of one trace in a single gathered pass.

    Parameters
    ----------
    client:
        The measuring :class:`~repro.ycsb.client.YCSBClient` whose
        settings (repeats, noise, seed, concurrency, contention, LLC,
        faults) define the measurement.
    trace:
        The request trace shared by every placement.
    profile:
        The engine's :class:`~repro.kvstore.profiles.EngineProfile`.
    system:
        The :class:`~repro.memsim.system.HybridMemorySystem` hosting
        every placement (placements share node parameters; only the
        placement varies).
    record_sizes:
        Dense per-key sizes defining the key space (defaults to
        ``trace.record_sizes``, which is what every deployment built
        from the trace uses).
    """

    def __init__(self, client, trace, profile, system, record_sizes=None):
        record_sizes = np.asarray(
            trace.record_sizes if record_sizes is None else record_sizes,
            dtype=np.int64,
        )
        if trace.n_keys != record_sizes.size:
            raise WorkloadError(
                f"trace key space ({trace.n_keys}) does not match the "
                f"placement key space ({record_sizes.size})"
            )
        if trace.n_requests == 0:
            raise WorkloadError(
                f"trace {trace.name!r} has no requests: nothing to measure"
            )
        self.client = client
        self.trace = trace
        self.profile = profile
        self.system = system
        self.record_sizes = record_sizes
        # the cost law over the key space, once: per node a (2, n_keys)
        # table (row 0 writes, row 1 reads) that req_index gathers from
        nodes = system.nodes
        self.tables = service_tables(
            profile, record_sizes, [n.latency_ns for n in nodes],
            [n.bytes_per_ns for n in nodes], client.pass_scale,
        )
        self.req_index = trace.keys + trace.is_read * record_sizes.size
        self.read_idx = np.flatnonzero(trace.is_read)
        self._live_seed = isinstance(client.seed, np.random.Generator)
        self.trace_digest = (
            None if self._live_seed else client.trace_digest(trace)
        )
        # the LLC hit mask is placement-independent; one replay serves
        # every placement (and the client memoizes it across kernels)
        self._cached, self._cache_lat = client._cache_mask(
            trace, system.llc, self.trace_digest
        )
        # the request-length rows a placement reads, built here so that
        # run_all's threads only ever read shared state: the cost-law
        # operands under an active fault (its timeline is indexed by
        # time, not by key), else the service time of an LLC hit
        faults = client.faults
        self._faulty = faults is not None and faults.active
        self._request_operands = self._hit_row = None
        if self._faulty:
            self._request_operands = self._operands(trace.keys, trace.is_read)
        elif self._cached is not None:
            self._hit_row = np.where(
                trace.is_read, profile.read_cpu_ns, profile.write_cpu_ns
            ) + self._cache_lat

    def _operands(self, keys, is_read):
        """``(sizes, passes, cpu_ns)`` of the cost law for *keys* x *is_read*."""
        profile = self.profile
        sizes = self.record_sizes[keys] + profile.metadata_bytes
        passes = np.where(is_read, profile.read_passes, profile.write_passes)
        cpu = np.where(is_read, profile.read_cpu_ns, profile.write_cpu_ns)
        return sizes, passes * self.client.pass_scale, cpu

    def fingerprint(self, placement: np.ndarray) -> str | None:
        """The experiment fingerprint of one placement (None if unseeded).

        Identical to ``client.experiment_fingerprint(trace, deployment)``
        for a deployment carrying *placement* — computed without building
        the deployment.
        """
        if self._live_seed:
            return None
        return placement_fingerprint(
            self.trace_digest, self.profile, placement,
            self.record_sizes.size, self.system, self.client,
        )

    def base_times(self, placement: np.ndarray, fingerprint: str | None = None):
        """The pre-noise half of :meth:`run`.

        Returns ``(label, base_ns, noise_scale)``: the label rooting the
        placement's noise streams, its noise-free per-request service
        times (faults applied) and the per-request sigma scale (or None).
        """
        n_tiers = len(self.tables)
        placement = check_placement(placement, self.record_sizes.size, n_tiers)
        if self._live_seed:
            # live-generator clients are not fingerprintable; every
            # derive_seed call draws from the generator, so a static
            # label still yields fresh independent streams
            label = self.trace.name
        else:
            label = fingerprint or self.fingerprint(placement)
        # the keys each tier but the slowest holds
        masks = ([placement] if n_tiers == 2
                 else [placement == k for k in range(n_tiers - 1)])
        if not self._faulty:
            table = _by_tier(masks, self.tables)
            base = table.ravel().take(self.req_index)
            if self._cached is not None:
                base = np.where(self._cached, self._hit_row, base)
            return label, base, None
        # a fault timeline is indexed by time, not by key: the one
        # request-length evaluation of the same law; its slow-node
        # multipliers apply to every tier below FastMem
        masks = [mask[self.trace.keys] for mask in masks]
        nodes = self.system.nodes
        latency = _by_tier(masks, [n.latency_ns for n in nodes])
        bpns = _by_tier(masks, [n.bytes_per_ns for n in nodes])
        sizes, passes, cpu = self._request_operands
        latency, bpns, cpu, noise_scale = self.client._fault_arrays(
            label, masks[0], latency, bpns, cpu
        )
        base = service_times_ns(
            sizes, latency, bpns, passes, cpu,
            cached=self._cached, cache_latency_ns=self._cache_lat,
        )
        return label, base, noise_scale

    def run(self, placement: np.ndarray, fingerprint: str | None = None):
        """Measure one placement; returns a ``RunResult``.

        ``fingerprint`` may be passed when the caller already computed it
        (e.g. for a cache probe) to avoid hashing the placement twice.
        """
        telemetry.count("memsim.path", path="batch_kernel")
        label, base, noise_scale = self.base_times(placement, fingerprint)
        return measure_repeats(
            self.client, self.trace, self.profile.name, base, label,
            noise_scale, self.read_idx,
        )

    def run_all(self, placements, fingerprints=None) -> list:
        """Measure every placement in *placements* (rows or a sequence).

        ``fingerprints``, if given, holds each placement's precomputed
        fingerprint (see :meth:`run`).  Results come back in input order.

        The placements are spread over ``min(len(masks), usable CPUs)``
        threads started for this call: each runs a contiguous share
        through :meth:`run` and the caller runs the last one, so with a
        width of one (a single mask, a single CPU, or a live-generator
        seed, whose ``derive_seed`` draws are shared state) nothing is
        started.  Every placement is a pure function of its label and
        the shared tables, so the numbers do not depend on the width.
        If placements raise, every thread is joined first and the
        exception of the lowest-index one is re-raised — the one the
        sequential loop would have raised.
        """
        masks = list(placements)
        n = len(masks)
        fps = [None] * n if fingerprints is None else list(fingerprints)
        width = 1 if self._live_seed else min(n, _usable_cpus())
        if width <= 1:
            return [self.run(mask, fp) for mask, fp in zip(masks, fps)]
        results: list = [None] * n
        errors: list = [None] * n

        def share(lo: int, hi: int) -> None:
            for i in range(lo, hi):
                try:
                    results[i] = self.run(masks[i], fps[i])
                except Exception as exc:  # re-raised by the caller
                    errors[i] = exc
                    return

        bounds = [n * k // width for k in range(width + 1)]
        helpers = [
            threading.Thread(target=share, args=bounds[k:k + 2])
            for k in range(width - 1)
        ]
        for thread in helpers:
            thread.start()
        try:
            share(*bounds[-2:])
        finally:
            for thread in helpers:
                thread.join()
        for exc in errors:
            if exc is not None:
                raise exc
        return results
