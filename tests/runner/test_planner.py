"""Sweep planner: grouped dispatch equivalence, attribution, trace memos.

The planner's contract is strict: grouped-batch dispatch over a worker
pool must produce results, fingerprints and cache entries
*bit-identical* to the serial path, attribute failures to individual
specs even when they arrive batched, and have each worker generate a
workload's trace at most once — a warm pool generates none.
"""

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.faults import ChaosPlan
from repro.runner import (
    ClientConfig,
    ExperimentRunner,
    ExperimentSpec,
    PlacementBatch,
    RetryPolicy,
)
from repro.runner import grid
from repro.runner.fingerprint import workload_fingerprint
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

    def test_each_workload_is_fingerprinted_once(self, monkeypatch):
        # 5 workloads x 12 splits: 5 digests, not 60, and the same groups
        specs = ExperimentRunner.grid(
            list(TABLE_III_WORKLOADS),
            placements=("split",),
            fast_fractions=tuple(i / 13 for i in range(1, 13)),
        )
        want = {(workload_fingerprint(s.workload), s.engine) for s in specs}
        calls = []

        def counted(workload):
            calls.append(workload)
            return workload_fingerprint(workload)

        monkeypatch.setattr(grid, "workload_fingerprint", counted)
        groups = ExperimentRunner._groups(specs, list(range(60)))
        assert len(calls) == 5
        assert set(groups) == want
        assert [len(m) for m in groups.values()] == [12] * 5

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

    @pytest.fixture
    def batches_built(self, monkeypatch):
        """Every PlacementBatch the executor builds while the test runs."""
        from repro.runner import executor

        built = []

        class Counting(PlacementBatch):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(executor, "PlacementBatch", Counting)
        return built

    def test_serial_sweep_is_one_batch_per_group(
        self, small_spec, grid_specs, batches_built,
    ):
        splits = ExperimentRunner.grid(
            [small_spec], placements=("split",),
            fast_fractions=tuple(i / 13 for i in range(1, 13)),
        )
        runner = ExperimentRunner(client=ClientConfig(repeats=1, seed=7))
        assert runner.sweep(splits).ok
        assert len(batches_built) == 1
        # two groups, two batches
        assert runner.sweep(grid_specs).ok
        assert len(batches_built) == 3

    def test_baselines_are_one_batch(self, small_spec, batches_built):
        runner = ExperimentRunner(client=ClientConfig(repeats=1, seed=7))
        runner.baselines(small_spec)
        assert len(batches_built) == 1

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
    """The submit loop hands the pool one batch at a time."""

    @staticmethod
    def _record(monkeypatch, break_at=None):
        """Log each pool ``submit``'s workload name, in order.

        The submit with 0-based index *break_at* finds the pool broken.
        """
        events = []
        submit = ProcessPoolExecutor.submit

        def recording_submit(pool, fn, *args, **kwargs):
            events.append(args[0][0][0].workload.name)
            if len(events) - 1 == break_at:
                raise BrokenProcessPool("a worker died mid-submit")
            return submit(pool, fn, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", recording_submit)
        return events

    def test_pool_breaking_between_submits_is_an_uncharged_retry(
        self, grid_specs, reference, tmp_path, monkeypatch,
    ):
        # a worker can die with later batches not yet submitted: they
        # are lost with the in-flight ones and retried, and nobody's
        # budget is charged
        retry = RetryPolicy(max_attempts=1, backoff_base_s=0.01)
        with _runner(tmp_path, "midsubmit", retry=retry) as runner:
            events = self._record(monkeypatch, break_at=2)
            outcome = runner.sweep(grid_specs, workers=2)
        assert outcome.ok
        assert outcome.results == reference.results
        assert events[:3] == ["small_hotspot", "small_hotspot", "small_mixed"]


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

    def test_warm_pool_generates_nothing(
        self, grid_specs, reference, tmp_path, monkeypatch,
    ):
        # patched before the pool forks, so every worker logs its own
        # generations: one "pid workload" line each, appended to a file
        import repro.runner.grid as grid

        log = tmp_path / "generated.log"
        generate = grid.generate_trace

        def logging_generate(workload):
            with open(log, "a") as f:
                f.write(f"{os.getpid()} {workload.name}\n")
            return generate(workload)

        def lines():
            return log.read_text().splitlines() if log.exists() else []

        monkeypatch.setattr(grid, "generate_trace", logging_generate)
        names = {s.workload.name for s in grid_specs}
        with _runner(tmp_path, "warmpool") as runner:
            cold = runner.sweep(grid_specs, workers=2)
            cold_lines = lines()
            warm = runner.sweep(grid_specs, workers=2)
            warm_lines = lines()[len(cold_lines):]
        assert cold.results == warm.results == reference.results
        # the coordinator generates nothing; each worker generates a
        # workload at most once, and every workload somewhere
        pids = {line.split()[0] for line in cold_lines}
        assert str(os.getpid()) not in pids and len(pids) <= 2
        assert len(set(cold_lines)) == len(cold_lines)
        assert {line.split()[1] for line in cold_lines} == names
        # the warm sweep regenerates nothing a worker already holds (a
        # batch goes to whichever worker is free, so a worker that got
        # none of a workload's batches cold may generate it once now)
        assert not set(warm_lines) & set(cold_lines)
        assert len(set(cold_lines + warm_lines)) == len(
            cold_lines + warm_lines
        ) <= 2 * len(names)

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
        # workers generate their own traces: no shared-memory traffic
        assert _metric_total(tel, "runner.shm") == 0
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
