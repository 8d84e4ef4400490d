"""Reference tests for the multi-placement batch kernel.

The kernel is the only way a placement is measured, so its references
live here: `legacy_execute`, a verbatim copy of the per-deployment
measurement it replaced (its own gather, one `AccessTimer` per repeat),
which `execute` and `execute_placements` must match bit for bit; and
the (repeats x requests) matrix formulation the row-at-a-time
`measure_repeats` replaced; and `request_space_base`, the cost law over
the request axis, which the key-space tables must reproduce.
"""

import os
import sys
import threading

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.mnemo import Mnemo
from repro.errors import WorkloadError
from repro.faults import (
    BandwidthDegradation, FaultSpec, JitterBursts, LatencySpikes, NodeOffline,
)
from repro.kvstore.dynamolike import DynamoLike
from repro.kvstore.memcachedlike import MemcachedLike
from repro.kvstore.profiles import builtin_profiles
from repro.kvstore.redislike import RedisLike
from repro.kvstore.server import HybridDeployment
from repro.memsim.kernel import BatchKernel, measure_repeats
from repro.memsim.system import HybridMemorySystem
from repro.memsim.timing import AccessTimer, NoiseModel
from repro.rng import derive_seed, ensure_rng
from repro.runner.caching import CachingClient
from repro.store import SQLiteStore
from repro.ycsb.client import RunResult, YCSBClient
from repro.ycsb.generator import generate_trace
from repro.ycsb.presets import workload_by_name
from repro.ycsb.workload import Trace


@pytest.fixture(scope="module")
def trace():
    spec = workload_by_name("trending").scaled(n_keys=400, n_requests=4000)
    return generate_trace(spec.with_seed(7))


def _masks(n_keys, fracs=(0.0, 0.35, 1.0), seed=5):
    rng = np.random.default_rng(seed)
    masks = np.zeros((len(fracs), n_keys), dtype=bool)
    for i, frac in enumerate(fracs):
        picked = rng.choice(n_keys, int(frac * n_keys), replace=False)
        masks[i, picked] = True
    return masks


def _deployments(trace, masks):
    return [
        HybridDeployment(
            RedisLike, HybridMemorySystem.testbed(), trace.record_sizes,
            fast_keys=np.nonzero(m)[0],
        )
        for m in masks
    ]


def realisation_matrix(base_ns, noise, seed, label, repeats,
                       noise_scale=None):
    """Oracle: the (repeats x requests) noisy-time matrix, as shipped
    before `measure_repeats` (verbatim)."""
    n = base_ns.size
    if noise.sigma == 0.0:
        return np.broadcast_to(base_ns, (repeats, n))
    z = np.empty((repeats, n))
    for r in range(repeats):
        rng = ensure_rng(derive_seed(seed, f"{label}/run{r}"))
        z[r] = rng.standard_normal(n)
    if noise_scale is not None:
        z *= noise_scale
    factors = 1.0 + noise.sigma * z
    np.maximum(factors, 1e-3, out=factors)
    return base_ns[None, :] * factors


def summarize(trace, engine, times_ns, concurrency, percentiles):
    """Oracle: the matrix folded to a `RunResult` through
    `np.percentile(axis=1)`, as shipped before `measure_repeats`."""
    repeats = times_ns.shape[0]
    is_read = trace.is_read
    n_reads = int(is_read.sum())
    n_writes = trace.n_requests - n_reads
    row_sums = np.array([times_ns[r].sum() for r in range(repeats)])
    runtimes = row_sums / concurrency
    read_sums = np.array(
        [times_ns[r][is_read].sum() for r in range(repeats)]
    )
    write_sums = row_sums - read_sums
    pct = {}
    if percentiles:
        qs = np.percentile(times_ns, percentiles, axis=1)
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
        concurrency=concurrency,
    )


def oracle_measure(client, trace, engine, base, label, noise_scale=None):
    times = realisation_matrix(
        base, client.noise, client.seed, label, client.repeats,
        noise_scale=noise_scale,
    )
    return summarize(
        trace, engine, times, client.concurrency, client.percentiles
    )


def legacy_gather(client, trace, deployment):
    """Verbatim copy of the per-deployment parameter gather."""
    record_sizes, fast_mask = deployment.placement_arrays()
    prof = deployment.profile
    system = deployment.system
    sizes = record_sizes[trace.keys] + prof.metadata_bytes
    on_fast = fast_mask[trace.keys]
    latency = np.where(on_fast, system.fast.latency_ns, system.slow.latency_ns)
    bpns = np.where(on_fast, system.fast.bytes_per_ns, system.slow.bytes_per_ns)
    passes = np.where(trace.is_read, prof.read_passes, prof.write_passes)
    if client.concurrency > 1:
        passes = passes * (1 + client.contention * (client.concurrency - 1))
    cpu = np.where(trace.is_read, prof.read_cpu_ns, prof.write_cpu_ns)
    return sizes, latency, bpns, passes, cpu, on_fast


def legacy_execute(client, trace, deployment):
    """Verbatim copy of the pre-kernel per-repeat measurement loop."""
    sizes, latency, bpns, passes, cpu, on_fast = legacy_gather(
        client, trace, deployment
    )
    digest, label = client.experiment_fingerprint(trace, deployment)
    cached, cache_lat = client._cache_mask(
        trace, deployment.system.llc, digest
    )
    latency, bpns, cpu, noise_scale = client._fault_arrays(
        label, on_fast, latency, bpns, cpu
    )
    runtimes = np.empty(client.repeats)
    read_sums = np.empty(client.repeats)
    write_sums = np.empty(client.repeats)
    pct_acc = {q: np.empty(client.repeats) for q in client.percentiles}
    is_read = trace.is_read
    n_reads = int(is_read.sum())
    n_writes = trace.n_requests - n_reads
    for r in range(client.repeats):
        timer = AccessTimer(
            noise=client.noise,
            seed=derive_seed(client._seed, f"{label}/run{r}"),
        )
        times = timer.request_times_ns(
            sizes, latency, bpns, passes, cpu,
            cached=cached, cache_latency_ns=cache_lat,
            noise_scale=noise_scale,
        )
        runtimes[r] = times.sum() / client.concurrency
        read_sums[r] = times[is_read].sum()
        write_sums[r] = times.sum() - read_sums[r]
        if client.percentiles:
            qs = np.percentile(times, client.percentiles)
            for q, v in zip(client.percentiles, qs):
                pct_acc[q][r] = v
    return dict(
        runtime_ns=float(runtimes.mean()),
        avg_read_ns=float(read_sums.mean() / n_reads) if n_reads else 0.0,
        avg_write_ns=float(write_sums.mean() / n_writes) if n_writes else 0.0,
        pct={q: float(v.mean()) for q, v in pct_acc.items()},
        std=float(runtimes.std()),
    )


def assert_matches_legacy(result, legacy):
    assert result.runtime_ns == legacy["runtime_ns"]
    assert result.avg_read_ns == legacy["avg_read_ns"]
    assert result.avg_write_ns == legacy["avg_write_ns"]
    assert result.latency_percentiles_ns == legacy["pct"]
    assert result.runtime_std_ns == legacy["std"]


class TestVectorizedRepeats:
    """`execute` rides the kernel; the per-repeat loop is its reference."""

    @pytest.mark.parametrize("use_llc", [False, True])
    @pytest.mark.parametrize("concurrency", [1, 4])
    def test_execute_bit_identical_to_loop(self, trace, use_llc, concurrency):
        client = YCSBClient(
            repeats=3, seed=11, use_llc=use_llc, concurrency=concurrency
        )
        (deployment,) = _deployments(trace, _masks(trace.n_keys, (0.4,)))
        legacy = legacy_execute(client, trace, deployment)
        assert_matches_legacy(client.execute(trace, deployment), legacy)

    def test_zero_sigma_path(self, trace):
        client = YCSBClient(repeats=2, seed=1, noise_sigma=0.0)
        (deployment,) = _deployments(trace, _masks(trace.n_keys, (0.0,)))
        legacy = legacy_execute(client, trace, deployment)
        assert_matches_legacy(client.execute(trace, deployment), legacy)

    def test_live_generator_seed_still_runs(self, trace):
        client = YCSBClient(repeats=2, seed=np.random.default_rng(3))
        (deployment,) = _deployments(trace, _masks(trace.n_keys, (0.5,)))
        result = client.execute(trace, deployment)
        assert result.runtime_ns > 0


class TestRealisationMatrix:
    def test_rows_match_per_repeat_timers(self):
        base = np.random.default_rng(0).random(500) * 1000 + 10
        noise = NoiseModel(sigma=0.02)
        mat = realisation_matrix(base, noise, 9, "lbl", 4)
        for r in range(4):
            timer = AccessTimer(noise=noise, seed=derive_seed(9, "lbl/run" + str(r)))
            n = base.size
            row = timer.noise.apply(base, timer._rng)
            assert np.array_equal(mat[r], row)
            assert row.size == n

    def test_zero_sigma_is_base_broadcast(self):
        base = np.arange(10.0)
        mat = realisation_matrix(base, NoiseModel(sigma=0.0), 1, "x", 3)
        assert mat.shape == (3, 10)
        assert (mat == base).all()


class TestBatchKernel:
    @pytest.mark.parametrize("use_llc", [False, True])
    def test_bit_identical_to_per_deployment(self, trace, use_llc):
        client = YCSBClient(repeats=3, seed=4, use_llc=use_llc)
        system = HybridMemorySystem.testbed()
        profile = RedisLike(system.fast, system.slow).profile
        masks = _masks(trace.n_keys)
        batch = client.execute_placements(trace, masks, profile, system)
        for mask, deployment, got in zip(
            masks, _deployments(trace, masks), batch
        ):
            assert_matches_legacy(
                got, legacy_execute(client, trace, deployment)
            )
            assert got == client.execute(trace, deployment)

    def test_fingerprints_match_deployment_path(self, trace):
        client = YCSBClient(seed=4)
        system = HybridMemorySystem.testbed()
        profile = RedisLike(system.fast, system.slow).profile
        kernel = BatchKernel(client, trace, profile, system)
        masks = _masks(trace.n_keys)
        for mask, deployment in zip(masks, _deployments(trace, masks)):
            assert kernel.fingerprint(mask) == \
                client.experiment_fingerprint(trace, deployment)[1]

    def test_concurrency_and_faults(self, trace):
        faults = FaultSpec(
            latency_spikes=LatencySpikes(),
            jitter_bursts=JitterBursts(),  # exercises noise_scale too
        )
        client = YCSBClient(
            repeats=2, seed=8, concurrency=3, faults=faults
        )
        system = HybridMemorySystem.testbed()
        profile = RedisLike(system.fast, system.slow).profile
        masks = _masks(trace.n_keys, (0.2, 0.9))
        batch = client.execute_placements(trace, masks, profile, system)
        for mask, deployment, got in zip(
            masks, _deployments(trace, masks), batch
        ):
            assert_matches_legacy(
                got, legacy_execute(client, trace, deployment)
            )
            assert got == client.execute(trace, deployment)

    def test_key_space_mismatch_raises(self, trace):
        client = YCSBClient(seed=1)
        system = HybridMemorySystem.testbed()
        profile = RedisLike(system.fast, system.slow).profile
        with pytest.raises(WorkloadError):
            BatchKernel(
                client, trace, profile, system,
                record_sizes=np.ones(trace.n_keys + 1, dtype=np.int64),
            )

    def test_bad_mask_raises(self, trace):
        client = YCSBClient(seed=1)
        system = HybridMemorySystem.testbed()
        profile = RedisLike(system.fast, system.slow).profile
        kernel = BatchKernel(client, trace, profile, system)
        with pytest.raises(WorkloadError):
            kernel.run(np.ones(trace.n_keys, dtype=np.int64))
        with pytest.raises(WorkloadError):
            kernel.run(np.ones(trace.n_keys - 1, dtype=bool))

    def test_empty_trace_is_a_workload_error(self, trace):
        empty = Trace(
            name="hollow", keys=np.empty(0, dtype=np.int64),
            is_read=np.empty(0, dtype=bool), record_sizes=trace.record_sizes,
        )
        client = YCSBClient(seed=1)
        system = HybridMemorySystem.testbed()
        profile = RedisLike(system.fast, system.slow).profile
        with pytest.raises(WorkloadError, match="'hollow' has no requests"):
            BatchKernel(client, empty, profile, system)
        with pytest.raises(WorkloadError, match="'hollow' has no requests"):
            client.execute_placements(
                empty, _masks(trace.n_keys, (0.5,)), profile, system
            )

    def test_live_generator_batch_runs(self, trace):
        client = YCSBClient(repeats=2, seed=np.random.default_rng(5))
        system = HybridMemorySystem.testbed()
        profile = RedisLike(system.fast, system.slow).profile
        results = client.execute_placements(
            trace, _masks(trace.n_keys, (0.5,)), profile, system
        )
        assert results[0].runtime_ns > 0


def request_space_base(client, trace, profile, system, record_sizes, mask,
                       label=None):
    """Oracle: the cost law over the request axis, written out — the
    gather `BatchKernel.base_times` did before the key-space tables."""
    sizes = record_sizes[trace.keys] + profile.metadata_bytes
    on_fast = mask[trace.keys]
    latency = np.where(on_fast, system.fast.latency_ns, system.slow.latency_ns)
    bpns = np.where(on_fast, system.fast.bytes_per_ns, system.slow.bytes_per_ns)
    passes = np.where(trace.is_read, profile.read_passes, profile.write_passes)
    if client.concurrency > 1:
        passes = passes * (1 + client.contention * (client.concurrency - 1))
    cpu = np.where(trace.is_read, profile.read_cpu_ns, profile.write_cpu_ns)
    latency, bpns, cpu, noise_scale = client._fault_arrays(
        label, on_fast, latency, bpns, cpu
    )
    mem = passes * (latency + sizes.astype(np.float64) / bpns)
    if client.use_llc:
        digest = client.trace_digest(trace)
        hits, hit_ns = client._cache_mask(trace, system.llc, digest)
        mem = np.where(hits, hit_ns, mem)
    return cpu + mem, noise_scale


def _synthetic_trace(rng, n_keys, n, read_fraction, mixed_sizes):
    sizes = (
        rng.choice([64, 1000, 4096, 100_000], n_keys) if mixed_sizes
        else np.full(n_keys, 1024)
    )
    n_reads = int(round(read_fraction * n))
    return Trace(
        name="synthetic",
        keys=rng.integers(0, n_keys, n),
        is_read=rng.permutation(np.arange(n) < n_reads),
        record_sizes=sizes.astype(np.int64),
    )


class TestKeySpaceTables:
    """Key-space tables + one gather ≡ the request-space cost law."""

    @given(
        n_keys=st.integers(1, 300),
        n=st.integers(1, 2000),
        read_fraction=st.sampled_from([0.0, 0.25, 0.5, 0.95, 1.0]),
        mixed_sizes=st.booleans(),
        fast_fraction=st.sampled_from([0.0, 0.3, 1.0]),
        engine=st.sampled_from(sorted(builtin_profiles())),
        concurrency=st.sampled_from([1, 4]),
        use_llc=st.booleans(),
        override=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_base_times_bit_identical_to_request_space(
        self, n_keys, n, read_fraction, mixed_sizes, fast_fraction, engine,
        concurrency, use_llc, override, seed,
    ):
        rng = np.random.default_rng(seed)
        trace = _synthetic_trace(rng, n_keys, n, read_fraction, mixed_sizes)
        record_sizes = (
            trace.record_sizes + rng.integers(0, 512, n_keys) if override
            else trace.record_sizes
        )
        mask = rng.random(n_keys) < fast_fraction
        client = YCSBClient(seed=seed, concurrency=concurrency, use_llc=use_llc)
        # an LLC small enough that the synthetic traces evict
        system = HybridMemorySystem.testbed(llc_bytes=64 * 1024)
        profile = builtin_profiles()[engine]
        kernel = BatchKernel(
            client, trace, profile, system,
            record_sizes=record_sizes if override else None,
        )
        _, base, noise_scale = kernel.base_times(mask)
        expect, _ = request_space_base(
            client, trace, profile, system, record_sizes, mask
        )
        assert noise_scale is None
        assert base.dtype == expect.dtype and np.array_equal(base, expect)

    @pytest.mark.parametrize("use_llc", [False, True])
    def test_active_faults_take_the_request_space_branch(self, trace, use_llc):
        faults = FaultSpec(
            latency_spikes=LatencySpikes(),
            bandwidth_degradation=BandwidthDegradation(),
            node_offline=NodeOffline(width=500),
            jitter_bursts=JitterBursts(),
        )
        client = YCSBClient(seed=8, concurrency=3, faults=faults,
                            use_llc=use_llc)
        system = HybridMemorySystem.testbed()
        profile = builtin_profiles()["redis"]
        kernel = BatchKernel(client, trace, profile, system)
        for mask in _masks(trace.n_keys, (0.2, 0.9)):
            label, base, noise_scale = kernel.base_times(mask)
            expect, expect_scale = request_space_base(
                client, trace, profile, system, trace.record_sizes, mask,
                label=label,
            )
            assert np.array_equal(base, expect)
            assert np.array_equal(noise_scale, expect_scale)

    def test_an_inactive_spec_is_unfaulted(self, trace):
        system = HybridMemorySystem.testbed()
        profile = builtin_profiles()["redis"]
        (mask,) = _masks(trace.n_keys, (0.4,))
        bases = [
            BatchKernel(
                YCSBClient(seed=8, faults=faults), trace, profile, system
            ).base_times(mask, "lbl")
            for faults in (None, FaultSpec())
        ]
        assert np.array_equal(bases[0][1], bases[1][1])
        assert bases[1][2] is None


class TestEngineClock:
    """The engines' scalar clock and the kernel evaluate one law
    (ROADMAP item 5's prerequisite for folding the one onto the other)."""

    @pytest.fixture(params=[RedisLike, MemcachedLike, DynamoLike])
    def loaded(self, request):
        rng = np.random.default_rng(2)
        trace = _synthetic_trace(rng, 60, 400, 0.7, mixed_sizes=True)
        mask = rng.random(trace.n_keys) < 0.4
        system = HybridMemorySystem.testbed()
        engine = request.param(system.fast, system.slow)
        engine.load(enumerate(trace.record_sizes.tolist()),
                    fast_keys=np.flatnonzero(mask).tolist())
        kernel = BatchKernel(
            YCSBClient(seed=1), trace, engine.profile, system
        )
        return engine, kernel, trace, mask

    def test_scalar_ops_equal_table_entries(self, loaded):
        engine, kernel, trace, mask = loaded
        for key in range(trace.n_keys):
            table = kernel.fast_tab if mask[key] else kernel.slow_tab
            assert engine.put(key).service_time_ns == table[0, key]
            assert engine.get(key).service_time_ns == table[1, key]

    def test_clock_is_the_in_order_sum_of_base_times(self, loaded):
        engine, kernel, trace, mask = loaded
        for key, is_read in zip(trace.keys.tolist(), trace.is_read.tolist()):
            engine.get(key) if is_read else engine.put(key)
        _, base, _ = kernel.base_times(mask)
        in_order = 0.0
        for t in base.tolist():
            in_order += t
        assert engine.clock_ns == in_order


ALL_FAULTS = FaultSpec(
    latency_spikes=LatencySpikes(),
    bandwidth_degradation=BandwidthDegradation(),
    node_offline=NodeOffline(width=500),
    jitter_bursts=JitterBursts(),
)


@pytest.fixture
def thread_starts(monkeypatch):
    """Report `n` usable CPUs; count the threads started meanwhile."""
    started = []

    class CountingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", CountingThread)

    def with_cpus(n):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(n)), raising=False,
        )
        return started

    return with_cpus


class TestFanOut:
    """`run_all` on any number of threads ≡ the per-mask `run` loop."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("cpus", [1, 4])
    @pytest.mark.parametrize("use_llc", [False, True])
    @pytest.mark.parametrize("faults", [None, ALL_FAULTS])
    @pytest.mark.parametrize("concurrency", [1, 4])
    def test_bit_identical_to_the_run_loop(
        self, thread_starts, k, cpus, use_llc, faults, concurrency,
    ):
        rng = np.random.default_rng(k)
        trace = _synthetic_trace(rng, 300, 4000, 0.7, mixed_sizes=True)
        client = YCSBClient(
            repeats=2, seed=9, use_llc=use_llc, faults=faults,
            concurrency=concurrency,
        )
        # an LLC small enough that the synthetic trace evicts
        system = HybridMemorySystem.testbed(llc_bytes=64 * 1024)
        profile = builtin_profiles()["redis"]
        masks = _masks(trace.n_keys, (0.0, 0.2, 0.5, 0.8, 1.0)[:k])
        kernel = BatchKernel(client, trace, profile, system)
        started = thread_starts(cpus)
        got = kernel.run_all(masks)
        assert len(started) == min(k, cpus) - 1
        assert got == [kernel.run(mask) for mask in masks]

    def test_fingerprints_are_passed_through(self, trace, thread_starts):
        thread_starts(4)
        client = YCSBClient(repeats=2, seed=3)
        system = HybridMemorySystem.testbed()
        profile = builtin_profiles()["memcached"]
        kernel = BatchKernel(client, trace, profile, system)
        masks = _masks(trace.n_keys)
        fps = [kernel.fingerprint(mask) for mask in masks]
        assert kernel.run_all(masks, fps) == kernel.run_all(masks)
        # a label is the noise root: another one measures differently
        assert kernel.run_all(masks, ["x", "y", "z"]) != kernel.run_all(masks)

    def test_no_thread_for_a_live_generator(self, trace, thread_starts):
        started = thread_starts(4)
        client = YCSBClient(repeats=2, seed=np.random.default_rng(5))
        system = HybridMemorySystem.testbed()
        profile = builtin_profiles()["redis"]
        results = client.execute_placements(
            trace, _masks(trace.n_keys), profile, system,
        )
        assert len(results) == 3 and not started

    @pytest.mark.parametrize("cpus, k", [(4, 1), (1, 3)])
    def test_no_thread_for_one_mask_or_one_cpu(
        self, trace, thread_starts, cpus, k,
    ):
        started = thread_starts(cpus)
        client = YCSBClient(repeats=2, seed=5)
        system = HybridMemorySystem.testbed()
        profile = builtin_profiles()["redis"]
        masks = _masks(trace.n_keys, (0.1, 0.5, 0.9)[:k])
        client.execute_placements(trace, masks, profile, system)
        assert not started

    def test_no_affinity_api_falls_back_to_cpu_count(
        self, trace, thread_starts, monkeypatch,
    ):
        started = thread_starts(4)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        client = YCSBClient(repeats=2, seed=5)
        system = HybridMemorySystem.testbed()
        kernel = BatchKernel(client, trace, builtin_profiles()["redis"], system)
        masks = _masks(trace.n_keys)
        assert kernel.run_all(masks) == [kernel.run(mask) for mask in masks]
        assert len(started) == 1

    @pytest.mark.parametrize("cpus", [2, 4])
    def test_helper_failure_surfaces_the_loop_exception(
        self, trace, thread_starts, cpus,
    ):
        client = YCSBClient(repeats=2, seed=5)
        system = HybridMemorySystem.testbed()
        kernel = BatchKernel(client, trace, builtin_profiles()["redis"], system)
        good = _masks(trace.n_keys, (0.3, 0.6))
        # index 1 sits in a helper's share, index 3 in the caller's
        masks = [
            good[0], np.ones(trace.n_keys, dtype=np.int64),
            good[1], np.ones(trace.n_keys - 1, dtype=bool),
        ]
        with pytest.raises(WorkloadError) as loop:
            [kernel.run(mask) for mask in masks]
        started = thread_starts(cpus)
        with pytest.raises(WorkloadError) as fanned:
            kernel.run_all(masks)
        assert str(fanned.value) == str(loop.value)
        assert "int64" in str(fanned.value)
        assert len(started) == cpus - 1
        assert not any(t.is_alive() for t in started)

    def test_stress_counts_every_placement(self, trace, thread_starts):
        # more threads than cores, switching every microsecond: a lost
        # update on the shared telemetry registry would drop a count
        from repro import telemetry

        thread_starts(8)
        client = YCSBClient(repeats=1, seed=2)
        kernel = BatchKernel(
            client, trace, builtin_profiles()["redis"],
            HybridMemorySystem.testbed(),
        )
        masks = _masks(trace.n_keys, np.linspace(0.0, 1.0, 8))
        expect = [kernel.run(mask) for mask in masks]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with telemetry.session() as tel:
                for _ in range(10):
                    assert kernel.run_all(masks) == expect
        finally:
            sys.setswitchinterval(interval)
        (count,) = [
            rec["value"] for rec in tel.metrics.snapshot()
            if rec["name"] == "memsim.path"
        ]
        assert count == 10 * len(masks)

    def test_cold_cached_profile_equals_uncached(
        self, trace, thread_starts, tmp_path,
    ):
        started = thread_starts(2)
        reports = [
            Mnemo(
                engine_factory=RedisLike, client=YCSBClient(repeats=2, seed=4),
                cache=cache,
            ).profile(trace)
            for cache in (None, SQLiteStore(tmp_path / "s.db"))
        ]
        assert reports[0].baselines == reports[1].baselines
        assert len(started) == 2  # one helper per cold profile


class TestCachingBatch:
    def test_batch_shares_cache_with_execute(self, trace, tmp_path):
        system = HybridMemorySystem.testbed()
        profile = RedisLike(system.fast, system.slow).profile
        masks = _masks(trace.n_keys)
        cache = SQLiteStore(tmp_path / "s.db")

        writer = CachingClient(cache=cache, seed=6, repeats=2)
        batch = writer.execute_placements(trace, masks, profile, system)
        assert writer.cache_misses == len(masks)

        # executing a deployment must recall the batch's entries
        reader = CachingClient(cache=cache, seed=6, repeats=2)
        for mask, deployment, expect in zip(
            masks, _deployments(trace, masks), batch
        ):
            assert reader.execute(trace, deployment) == expect
        assert reader.cache_hits == len(masks)

        # and the batch recalls what execute stored
        again = CachingClient(cache=cache, seed=6, repeats=2)
        assert again.execute_placements(trace, masks, profile, system) == batch
        assert again.cache_hits == len(masks)
        assert again.cache_misses == 0


class TestFingerprintMemo:
    def test_memoized_fingerprint_is_stable(self, trace):
        client = YCSBClient(seed=2)
        (deployment,) = _deployments(trace, _masks(trace.n_keys, (0.3,)))
        first = client.experiment_fingerprint(trace, deployment)
        assert client.experiment_fingerprint(trace, deployment) == first
        # the trace is hashed once: its digest is memoized by identity
        assert client._trace_digest_memo[id(trace)] == first[0]

    def test_memo_entries_evict_on_gc(self):
        import gc

        client = YCSBClient(seed=2)
        spec = workload_by_name("trending").scaled(n_keys=50, n_requests=500)
        local = generate_trace(spec.with_seed(1))
        client.trace_digest(local)
        assert len(client._trace_digest_memo) == 1
        del local
        gc.collect()
        assert len(client._trace_digest_memo) == 0

    def test_distinct_deployments_distinct_fingerprints(self, trace):
        client = YCSBClient(seed=2)
        deployments = _deployments(trace, _masks(trace.n_keys, (0.2, 0.8)))
        fps = {
            client.experiment_fingerprint(trace, d)[1] for d in deployments
        }
        assert len(fps) == 2


class TestSummarize:
    def test_empty_percentiles(self, trace):
        base = np.linspace(10, 20, trace.n_requests)
        client = YCSBClient(
            repeats=2, seed=0, noise_sigma=0.0, percentiles=()
        )
        result = measure_repeats(client, trace, "redis-like", base, "x")
        assert result.latency_percentiles_ns == {}
        assert result.repeats == 2
        assert result == oracle_measure(client, trace, "redis-like", base, "x")


PERCENTILE_SETS = [
    (), (0,), (100,), (50.0, 95.0, 99.0), (99.0, 5.0, 50.0),
    (95.0, 95.0, 50, 100.0), (0.0, 0.001, 33.3, 99.999),
]


class TestMeasureRepeats:
    """`measure_repeats` ≡ matrix + `np.percentile(axis=1)`, field for field."""

    @given(
        n=st.integers(1, 3000),
        repeats=st.integers(1, 4),
        sigma=st.sampled_from([0.0, 0.01, 0.5]),
        scaled=st.booleans(),
        read_fraction=st.sampled_from([0.0, 0.25, 0.5, 0.95, 1.0]),
        ties=st.booleans(),
        percentiles=st.sampled_from(PERCENTILE_SETS),
        concurrency=st.sampled_from([1, 4]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=250, deadline=None)
    def test_bit_identical_to_matrix_oracle(
        self, n, repeats, sigma, scaled, read_fraction, ties, percentiles,
        concurrency, seed,
    ):
        rng = np.random.default_rng(seed)
        if ties:
            base = rng.choice([12.5, 300.0, 300.0, 9e4], n)
        else:
            base = rng.random(n) * 1e4 + 10.0
        n_reads = int(round(read_fraction * n))
        trace = Trace(
            name="synthetic",
            keys=np.zeros(n, dtype=np.int64),
            is_read=rng.permutation(np.arange(n) < n_reads),
            record_sizes=np.array([64], dtype=np.int64),
        )
        noise_scale = 1.0 + 3.0 * (rng.random(n) < 0.1) if scaled else None
        client = YCSBClient(
            repeats=repeats, noise_sigma=sigma, percentiles=percentiles,
            seed=seed, concurrency=concurrency,
        )
        args = (client, trace, "redis-like", base, "lbl", noise_scale)
        pristine = base.copy()
        assert measure_repeats(*args) == oracle_measure(*args)
        assert np.array_equal(base, pristine)  # the buffer is its own

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("percentiles", PERCENTILE_SETS[1:])
    def test_tiny_rows(self, n, percentiles):
        base = np.arange(n, 0.0, -1.0) * 7.0
        trace = Trace(
            name="tiny", keys=np.zeros(n, dtype=np.int64),
            is_read=np.arange(n) % 2 == 0,
            record_sizes=np.array([8], dtype=np.int64),
        )
        client = YCSBClient(repeats=2, seed=3, percentiles=percentiles)
        args = (client, trace, "redis-like", base, "lbl")
        assert measure_repeats(*args) == oracle_measure(*args)

    @pytest.mark.parametrize("read_fraction", [0.0, 0.4, 1.0])
    def test_read_idx_sums_match_the_boolean_index(self, read_fraction):
        rng = np.random.default_rng(4)
        trace = _synthetic_trace(rng, 1, 900, read_fraction, False)
        base = rng.random(900) * 1e4 + 10.0
        client = YCSBClient(repeats=3, seed=5)
        args = (client, trace, "redis-like", base, "lbl", None)
        assert measure_repeats(
            *args, read_idx=np.flatnonzero(trace.is_read)
        ) == oracle_measure(*args)

    def test_live_generator_draws_the_same_streams(self):
        base = np.random.default_rng(1).random(700) * 100 + 5
        trace = Trace(
            name="t", keys=np.zeros(700, dtype=np.int64),
            is_read=np.arange(700) % 3 > 0,
            record_sizes=np.array([8], dtype=np.int64),
        )
        results = [
            measure(
                YCSBClient(repeats=3, seed=np.random.default_rng(12)),
                trace, "redis-like", base, "lbl",
            )
            for measure in (measure_repeats, oracle_measure)
        ]
        assert results[0] == results[1]
