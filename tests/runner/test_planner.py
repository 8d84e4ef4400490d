"""Sweep planner: grouped dispatch equivalence, attribution, shm hygiene.

The planner's contract is strict: grouped-batch dispatch over the
shared-memory trace plane must produce results, fingerprints and cache
entries *bit-identical* to the serial path, attribute failures to
individual specs even when they arrive batched, and never leak a
shared-memory segment — including on the failure paths.
"""

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from multiprocessing import shared_memory

from repro import telemetry
from repro.faults import ChaosPlan
from repro.runner import (
    ClientConfig,
    ExperimentRunner,
    ExperimentSpec,
    PlacementBatch,
    RetryPolicy,
    TracePlane,
)
from repro.runner.fingerprint import workload_fingerprint
from repro.runner.grid import _worker_run_batch
from repro.store import SweepJournal
from repro.ycsb import TABLE_III_WORKLOADS, workload_by_name

#: Retries that keep test wall-clock low.
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.01)


def _runner(tmp_path, sub, **kwargs):
    kwargs.setdefault("client", ClientConfig(repeats=2, seed=7))
    kwargs.setdefault("retry", FAST_RETRY)
    return ExperimentRunner(cache=str(tmp_path / sub), **kwargs)


def _metric_total(tel, name, **labels):
    """Sum of a session's counter *name* over records matching *labels*."""
    return sum(
        rec["value"] for rec in tel.metrics.snapshot()
        if rec["name"] == name and all(
            rec["labels"].get(k) == v for k, v in labels.items()
        )
    )


def _segment_exists(name: str) -> bool:
    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    seg.close()
    return True


@pytest.fixture
def grid_specs(small_spec, mixed_spec):
    """Six cells: two (workload, engine) groups of three placements."""
    return ExperimentRunner.grid(
        [small_spec, mixed_spec], engines=("redis",),
        placements=("fast", "slow", "split"), fast_fractions=(0.3,),
    )


@pytest.fixture
def reference(grid_specs, tmp_path):
    """Clean serial results every planner configuration must equal."""
    runner = _runner(tmp_path, "ref")
    try:
        return runner.sweep(grid_specs)
    finally:
        runner.close()


class TestEquivalence:
    def test_grouped_identical_to_serial(
        self, grid_specs, reference, tmp_path,
    ):
        with _runner(tmp_path, "grp") as runner:
            grouped = runner.sweep(grid_specs, workers=2)
        assert grouped.ok
        assert grouped.results == reference.results

    def test_no_shm_identical(
        self, grid_specs, reference, tmp_path, monkeypatch,
    ):
        # no shared memory at all: every publish fails, every worker
        # materialises its trace, and nothing moves
        def no_plane(workload):
            raise OSError("no shared memory on this host")

        with telemetry.session() as tel:
            with _runner(tmp_path, "noshm") as runner:
                monkeypatch.setattr(runner, "_publish_trace", no_plane)
                outcome = runner.sweep(grid_specs, workers=2)
        assert outcome.ok
        assert outcome.results == reference.results
        assert _metric_total(tel, "runner.shm", op="publish_failed") == 2
        assert _metric_total(tel, "runner.shm", op="attach") == 0

    def test_cache_entries_identical_across_plans(
        self, grid_specs, tmp_path,
    ):
        # the grouped workers and the serial path must write the same
        # fingerprints — the stores are interchangeable byte stores
        with _runner(tmp_path, "a") as serial:
            serial.sweep(grid_specs)
            a = serial.cache.fingerprints("results")
        with _runner(tmp_path, "b") as grouped:
            grouped.sweep(grid_specs, workers=2)
            b = grouped.cache.fingerprints("results")

        assert a == b
        assert len(a) >= len(grid_specs)

    def test_batch_fingerprints_match_spec_fingerprints(
        self, grid_specs, tmp_path,
    ):
        with _runner(tmp_path, "fp") as runner:
            spec = grid_specs[0]
            trace = runner.trace_for(spec.workload)
            batch = PlacementBatch(
                runner._client, trace, __import__(
                    "repro.kvstore.profiles", fromlist=["profile_for"]
                ).profile_for(spec.engine), runner.system_factory(),
            )
            mask = runner.placement_mask(spec, trace)
            assert batch.fingerprint(mask) == runner.spec_fingerprint(
                spec, trace
            )

    def test_warm_grouped_sweep_recalls_from_cache(
        self, grid_specs, tmp_path,
    ):
        with _runner(tmp_path, "warm") as runner:
            cold = runner.sweep(grid_specs, workers=2)
            warm = runner.sweep(grid_specs, workers=2)
        assert set(cold.provenance) == {"computed"}
        assert set(warm.provenance) == {"cache"}
        assert warm.results == cold.results


class TestPlanner:
    def test_batches_group_by_workload_and_engine(
        self, grid_specs, tmp_path,
    ):
        with _runner(tmp_path, "plan") as runner:
            batches = runner._plan_batches(
                grid_specs, list(range(len(grid_specs))), {}, workers=1,
            )
            assert [m for _, m in batches] == [[0, 1, 2], [3, 4, 5]]

    def test_groups_are_cut_so_every_worker_gets_a_share(self):
        # the paper-scale shape: 5 workloads x 12 splits on 2 workers
        specs = ExperimentRunner.grid(
            list(TABLE_III_WORKLOADS),
            placements=("split",),
            fast_fractions=tuple(i / 13 for i in range(1, 13)),
        )
        batches = ExperimentRunner()._plan_batches(
            specs, list(range(60)), {}, workers=2,
        )
        assert [m for _, m in batches] == [
            list(range(s, s + 6)) for s in range(0, 60, 6)
        ]

    def test_split_levels_chunk_deterministically(
        self, grid_specs, tmp_path,
    ):
        with _runner(tmp_path, "plan") as runner:
            order = list(range(len(grid_specs)))
            level_0 = runner._plan_batches(grid_specs, order, {}, workers=1)
            key = level_0[0][0]
            level_1 = runner._plan_batches(
                grid_specs, order, {key: 1}, workers=1,
            )
            level_2 = runner._plan_batches(
                grid_specs, order, {key: 2}, workers=1,
            )
        assert [m for _, m in level_1] == [[0, 1], [2], [3, 4, 5]]
        assert [m for _, m in level_2] == [[0], [1], [2], [3, 4, 5]]

    @settings(max_examples=200, deadline=None)
    @given(
        group_of=st.lists(st.integers(0, 3), min_size=1, max_size=48),
        workers=st.integers(1, 6),
    )
    def test_level_0_batches_partition_the_round_within_the_bound(
        self, group_of, workers,
    ):
        # group_of[i] names the (workload, engine) group of pending spec
        # i, so groups interleave arbitrarily in spec order
        pairs = [
            (workload_by_name(w), e)
            for w in ("trending", "timeline") for e in ("redis", "memcached")
        ]
        specs = [
            ExperimentSpec(
                workload=pairs[g][0], engine=pairs[g][1],
                placement="split", fast_fraction=i / 48,
            )
            for i, g in enumerate(group_of)
        ]
        order = list(range(len(specs)))
        runner = ExperimentRunner()
        splits: dict = {}
        batches = runner._plan_batches(specs, order, splits, workers)

        def ceil_div(a, b):
            return -(-a // b)

        members_of: dict = {}
        for i, g in enumerate(group_of):
            key = (workload_fingerprint(pairs[g][0]), pairs[g][1])
            members_of.setdefault(key, []).append(i)
        # groups in first-appearance order, each one's chunks adjacent,
        # contiguous and in member order; every index exactly once
        assert list(dict.fromkeys(k for k, _ in batches)) == list(members_of)
        for key, members in members_of.items():
            chunks = [m for k, m in batches if k == key]
            assert sum(chunks, []) == members
            size = len(chunks[0])
            assert all(len(c) == size for c in chunks[:-1])
            assert 1 <= len(chunks[-1]) <= size
            # the bound: a share of the group for every worker, and at
            # least 2 x workers batches in the round ...
            bound = min(
                ceil_div(len(members), workers),
                ceil_div(len(order), 2 * workers),
            )
            assert size <= bound
            # ... reached at the smallest level that respects it
            level = next(
                lv for lv in range(8)
                if ceil_div(len(members), 1 << lv) == size
            )
            assert all(
                ceil_div(len(members), 1 << lv) > bound
                for lv in range(level)
            )
            # failure attribution halves from there down to singletons
            for bumps in range(1, 8):
                runner._split_group(specs, (key, chunks[0]), splits)
                finer = [
                    m for k, m in runner._plan_batches(
                        specs, order, splits, workers,
                    ) if k == key
                ]
                assert sum(finer, []) == members
                widest = max(map(len, finer))
                assert widest == ceil_div(len(members), 1 << (level + bumps))
                if widest == 1:
                    break
            else:  # pragma: no cover - would mean no convergence
                raise AssertionError("group never reached singletons")

    def test_pool_persists_across_sweeps(self, grid_specs, tmp_path):
        with _runner(tmp_path, "pool") as runner:
            runner.sweep(grid_specs, workers=2)
            first = runner._res.pool
            assert first is not None
            runner.sweep(grid_specs, workers=2)
            assert runner._res.pool is first
        assert runner._res.pool is None

    def test_summary_reports_aggregate_and_elapsed(
        self, grid_specs, tmp_path,
    ):
        with _runner(tmp_path, "sum") as runner:
            outcome = runner.sweep(grid_specs, workers=2)
        assert outcome.elapsed_s > 0
        text = outcome.summary()
        assert "compute:" in text and "aggregate" in text
        assert "wall clock:" in text and "elapsed" in text


class TestPipeline:
    """Traces are published as their group is submitted, not up front."""

    @staticmethod
    def _record(runner, monkeypatch, fail=(), break_at=None):
        """Log ``_publish_trace`` and pool ``submit`` calls in order.

        Publishing any workload named in *fail* raises; the submit with
        0-based index *break_at* finds the pool broken.
        """
        events = []
        publish, submit = runner._publish_trace, ProcessPoolExecutor.submit

        def recording_publish(workload):
            events.append(("publish", workload.name))
            if workload.name in fail:
                raise OSError("no shared memory for you")
            return publish(workload)

        def recording_submit(pool, fn, *args, **kwargs):
            events.append(("submit", args[0][0][0].workload.name))
            if [k for k, _ in events].count("submit") - 1 == break_at:
                raise BrokenProcessPool("a worker died mid-submit")
            return submit(pool, fn, *args, **kwargs)

        monkeypatch.setattr(runner, "_publish_trace", recording_publish)
        monkeypatch.setattr(ProcessPoolExecutor, "submit", recording_submit)
        return events

    def test_first_batch_submitted_before_last_trace_published(
        self, grid_specs, reference, tmp_path, monkeypatch,
    ):
        with telemetry.session() as tel:
            with _runner(tmp_path, "pipe") as runner:
                events = self._record(runner, monkeypatch)
                first = runner.sweep(grid_specs, workers=2)
                n_first = len(events)
                second = runner.sweep(grid_specs, workers=2)
        assert first.results == second.results == reference.results
        kinds = [kind for kind, _ in events[:n_first]]
        last_publish = n_first - 1 - kinds[::-1].index("publish")
        assert kinds.index("submit") < last_publish
        # each group's publish sits right before its own first submit
        assert events[:n_first] == [
            ("publish", "small_hotspot"),
            ("submit", "small_hotspot"), ("submit", "small_hotspot"),
            ("publish", "small_mixed"),
            ("submit", "small_mixed"), ("submit", "small_mixed"),
        ]
        # the warm runner reuses its segments: nothing is published again
        assert _metric_total(tel, "runner.shm", op="publish") == 2
        assert _metric_total(tel, "runner.shm", op="publish_failed") == 0

    def test_failed_publish_degrades_only_its_group(
        self, grid_specs, reference, tmp_path, monkeypatch,
    ):
        with telemetry.session() as tel:
            with _runner(tmp_path, "nopub") as runner:
                events = self._record(
                    runner, monkeypatch, fail=("small_mixed",),
                )
                outcome = runner.sweep(grid_specs, workers=2)
                assert len(runner._res.plane.segment_names) == 1
        assert outcome.ok
        assert outcome.results == reference.results
        # tried once for the failing workload, though it has two batches
        assert events.count(("publish", "small_mixed")) == 1
        assert events.count(("submit", "small_mixed")) == 2
        assert _metric_total(tel, "runner.shm", op="publish_failed") == 1
        assert _metric_total(tel, "runner.shm", op="publish") == 1


    def test_pool_breaking_between_submits_is_an_uncharged_retry(
        self, grid_specs, reference, tmp_path, monkeypatch,
    ):
        # publishing stretches the submit loop out, so a worker can die
        # with later batches not yet submitted: they are lost with the
        # in-flight ones and retried, and nobody's budget is charged
        retry = RetryPolicy(max_attempts=1, backoff_base_s=0.01)
        with _runner(tmp_path, "midsubmit", retry=retry) as runner:
            events = self._record(runner, monkeypatch, break_at=2)
            outcome = runner.sweep(grid_specs, workers=2)
        assert outcome.ok
        assert outcome.results == reference.results
        assert events.count(("publish", "small_mixed")) == 1


class TestTraceMemo:
    @staticmethod
    def _count_generate(monkeypatch):
        import repro.runner.grid as grid

        calls = []
        generate = grid.generate_trace

        def recording_generate(workload):
            calls.append(workload_fingerprint(workload))
            return generate(workload)

        monkeypatch.setattr(grid, "generate_trace", recording_generate)
        return calls

    def test_journaled_and_serial_sweeps_generate_once_per_workload(
        self, grid_specs, reference, tmp_path, monkeypatch,
    ):
        wanted = sorted(
            {workload_fingerprint(s.workload) for s in grid_specs}
        )
        calls = self._count_generate(monkeypatch)
        db = str(tmp_path / "memo.db")
        for journaled in (True, False):  # cold store, then warm store
            runner = ExperimentRunner(
                cache=db, client=ClientConfig(repeats=2, seed=7),
            )
            calls.clear()
            try:
                journal = (
                    SweepJournal(runner.cache, "memo") if journaled else None
                )
                outcome = runner.sweep(grid_specs, journal=journal)
                assert runner.cache.stats().entries["traces"] == 0
            finally:
                runner.close()
                runner.cache.close()
            assert outcome.results == reference.results
            assert sorted(calls) == wanted

    def test_store_with_trace_rows_serves_a_warm_sweep(
        self, grid_specs, reference, tmp_path,
    ):
        # a store older builds wrote holds a trace row per workload
        # beside the results: the warm sweep recalls every result
        with _runner(tmp_path, "old") as runner:
            runner.sweep(grid_specs)
            for spec in grid_specs:
                runner.cache.put_trace(
                    workload_fingerprint(spec.workload),
                    runner.trace_for(spec.workload),
                )
        with _runner(tmp_path, "old") as runner:
            warm = runner.sweep(grid_specs)
            assert runner.cache.stats().entries["traces"] == 2
        assert set(warm.provenance) == {"cache"}
        assert warm.results == reference.results

    def test_memo_is_bounded(self, tmp_path):
        from repro.runner.grid import TRACE_MEMO_SIZE

        runner = ExperimentRunner()
        base = workload_by_name("trending").scaled(64)
        for seed in range(TRACE_MEMO_SIZE + 3):
            runner.trace_for(base.with_seed(seed))
        assert len(runner._traces) == TRACE_MEMO_SIZE
        newest = base.with_seed(TRACE_MEMO_SIZE + 2)
        assert runner.trace_for(newest) is runner.trace_for(newest)


class TestGroupedChaos:
    def test_mid_batch_kill_attributed_and_converges(
        self, grid_specs, reference, tmp_path,
    ):
        # the victim sits mid-batch: its death takes the pool (and its
        # batch-mates' in-flight work) down, yet the sweep must converge
        # to bit-identical results with exactly one strike delivered
        victim = grid_specs[1].label
        runner = _runner(
            tmp_path, "kill",
            chaos=ChaosPlan(
                kill_labels=(victim,), mode="exit",
                marker_dir=str(tmp_path / "chaos"),
            ),
        )
        with runner:
            outcome = runner.sweep(grid_specs, workers=2)
        assert outcome.ok
        assert outcome.results == reference.results
        assert runner.chaos.strikes_delivered(victim) == 1

    def test_unrecoverable_spec_fails_alone(
        self, grid_specs, reference, tmp_path,
    ):
        # a spec that fails in-band on every attempt is reported against
        # its own label; its batch-mates complete untouched
        victim = grid_specs[2].label
        runner = _runner(
            tmp_path, "fail",
            chaos=ChaosPlan(
                kill_labels=(victim,), mode="raise", max_strikes=99,
                marker_dir=str(tmp_path / "chaos"),
            ),
        )
        with runner:
            outcome = runner.sweep(grid_specs, workers=2)
        assert not outcome.ok
        assert len(outcome.report) == 1
        failure = outcome.report.failures[0]
        assert failure.label == victim
        assert failure.attempts == FAST_RETRY.max_attempts
        for spec, res, ref in zip(
            grid_specs, outcome.results, reference.results,
        ):
            if spec.label == victim:
                assert res is None
            else:
                assert res == ref


class TestTracePlane:
    def test_publish_attach_roundtrip(self, small_trace):
        plane = TracePlane()
        try:
            handle = plane.publish(small_trace)
            trace, seg = handle.attach()
            assert trace.name == small_trace.name
            np.testing.assert_array_equal(trace.keys, small_trace.keys)
            np.testing.assert_array_equal(trace.is_read, small_trace.is_read)
            np.testing.assert_array_equal(
                trace.record_sizes, small_trace.record_sizes,
            )
            assert not trace.keys.flags.writeable
            seg.close()
        finally:
            plane.close()

    def test_publish_idempotent_per_digest(self, small_trace):
        plane = TracePlane()
        try:
            first = plane.publish(small_trace)
            second = plane.publish(small_trace)
            assert first is second
            assert len(plane) == 1
        finally:
            plane.close()

    def test_close_unlinks_segments(self, small_trace):
        plane = TracePlane()
        handle = plane.publish(small_trace)
        assert _segment_exists(handle.segment)
        plane.close()
        assert not _segment_exists(handle.segment)
        with pytest.raises(FileNotFoundError):
            handle.attach()

    def test_worker_falls_back_when_segment_vanished(
        self, small_spec, small_trace,
    ):
        # a dead handle degrades to materialising the trace — results
        # still flow, bit-identical to an in-process run
        plane = TracePlane()
        handle = plane.publish(small_trace)
        plane.close()
        spec = ExperimentSpec(workload=small_spec, placement="slow")
        config = ClientConfig(repeats=2, seed=7)
        entries, _ = _worker_run_batch((
            (spec,), handle, config, None,
            ExperimentRunner().system_factory, None, None,
        ))
        assert [ok for _, ok, _ in entries] == [True]
        expected = ExperimentRunner(cache=None, client=config).run(spec)
        assert entries[0][2][0] == expected

    def test_runner_close_removes_all_segments(self, grid_specs, tmp_path):
        runner = _runner(tmp_path, "leak")
        runner.sweep(grid_specs, workers=2)
        names = runner._res.plane.segment_names
        assert len(names) == 2  # one per workload
        assert all(_segment_exists(n) for n in names)
        runner.close()
        assert all(not _segment_exists(n) for n in names)

    def test_no_segment_survives_chaos(self, grid_specs, tmp_path):
        runner = _runner(
            tmp_path, "chaosleak",
            chaos=ChaosPlan(
                kill_labels=(grid_specs[0].label,), mode="exit",
                marker_dir=str(tmp_path / "chaos"),
            ),
        )
        runner.sweep(grid_specs, workers=2)
        names = runner._res.plane.segment_names
        runner.close()
        assert all(not _segment_exists(n) for n in names)


class TestPlannerTelemetry:
    def test_grouped_path_label_and_shm_counters(
        self, grid_specs, tmp_path,
    ):
        with telemetry.session() as tel:
            with _runner(tmp_path, "tele") as runner:
                outcome = runner.sweep(grid_specs, workers=2)
        assert outcome.ok
        # one simulate path: every computed cell counts under the kernel
        assert _metric_total(tel, "memsim.path") == len(grid_specs)
        assert _metric_total(
            tel, "memsim.path", path="batch_kernel",
        ) == len(grid_specs)
        assert _metric_total(tel, "runner.shm", op="publish") == 2
        assert _metric_total(tel, "runner.shm", op="attach") >= 1
        sweeps = [
            s for s in tel.all_spans() if s.name == "runner.sweep"
        ]
        assert sweeps and all(
            s.attrs.get("pooled") is True and "plan" not in s.attrs
            for s in sweeps
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cold_sweep_probes_the_store_once_per_cell(
        self, grid_specs, tmp_path, workers,
    ):
        # serial or pooled, a cell's result is looked up exactly once
        # (the executor's probe), then computed and stored
        with telemetry.session() as tel:
            with ExperimentRunner(
                cache=str(tmp_path / "probe.db"),
                client=ClientConfig(repeats=2, seed=7), retry=FAST_RETRY,
            ) as runner:
                outcome = runner.sweep(grid_specs, workers=workers)
                runner.cache.close()
        assert set(outcome.provenance) == {"computed"}
        assert _metric_total(
            tel, "cache.lookup", kind="results", outcome="miss",
        ) == len(grid_specs)
        assert _metric_total(tel, "cache.lookup", kind="results") == len(
            grid_specs
        )
