"""Sweep planner: grouped batches, attribution, the one-trace memo.

A sweep runs one batch per (workload, engine) group.  Its contract is
strict: grouped batches must produce results, fingerprints and cache
entries *bit-identical* to one batch per spec, attribute failures to
individual specs even when they arrive batched, and generate each
workload's trace once while holding at most one trace at a time.
"""

import weakref

import pytest

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
        # one batch per group equals one singleton batch per spec
        with _runner(tmp_path, "grp") as runner:
            singles = [runner.run(spec) for spec in grid_specs]
        assert reference.ok
        assert tuple(singles) == reference.results

    def test_cache_entries_identical_across_plans(
        self, grid_specs, tmp_path,
    ):
        # a plain sweep and a journaled one must write the same
        # fingerprints — the stores are interchangeable byte stores
        with _runner(tmp_path, "a") as plain:
            plain.sweep(grid_specs)
            a = plain.cache.fingerprints("results")
        with _runner(tmp_path, "b") as journaled:
            journaled.sweep(
                grid_specs, journal=SweepJournal(journaled.cache, "plans"),
            )
            b = journaled.cache.fingerprints("results")

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
            cold = runner.sweep(grid_specs)
            warm = runner.sweep(grid_specs)
        assert set(cold.provenance) == {"computed"}
        assert set(warm.provenance) == {"cache"}
        assert warm.results == cold.results


class TestPlanner:
    def test_batches_group_by_workload_and_engine(
        self, grid_specs, tmp_path,
    ):
        groups = ExperimentRunner._groups(
            grid_specs, list(range(len(grid_specs))),
        )
        assert list(groups.values()) == [[0, 1, 2], [3, 4, 5]]

    def test_a_workloads_groups_are_adjacent(self, small_spec, mixed_spec):
        # engines interleaved across workloads still run workload by
        # workload, so the one-trace memo generates each workload once
        specs = [
            ExperimentSpec(workload=w, engine=e, placement="fast")
            for e, w in [
                ("redis", small_spec), ("redis", mixed_spec),
                ("memcached", small_spec), ("memcached", mixed_spec),
            ]
        ]
        groups = ExperimentRunner._groups(specs, [0, 1, 2, 3])
        assert list(groups.values()) == [[0], [2], [1], [3]]

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

    def test_summary_reports_aggregate_and_elapsed(
        self, grid_specs, tmp_path,
    ):
        with _runner(tmp_path, "sum") as runner:
            outcome = runner.sweep(grid_specs)
        assert outcome.elapsed_s > 0
        text = outcome.summary()
        assert "compute:" in text and "aggregate" in text
        assert "wall clock:" in text and "elapsed" in text


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

    def test_a_sweep_holds_one_trace_at_a_time(self, tmp_path, monkeypatch):
        # every generated trace is watched: when one is generated, the
        # memo has already let the last one go, in a plain sweep, in a
        # journaled one (which fingerprints group by group) and in one
        # whose failed cells keep their exceptions until the round ends
        import repro.runner.grid as grid

        specs = ExperimentRunner.grid(
            [workload_by_name(n).scaled(64)
             for n in ("trending", "timeline", "news_feed")],
            engines=("redis", "memcached"), placements=("fast", "split"),
            fast_fractions=(0.3,),
        )
        generate = grid.generate_trace
        watched, alive = [], []

        def watching_generate(workload):
            trace = generate(workload)
            watched.append(weakref.ref(trace))
            alive.append(sum(1 for ref in watched if ref() is not None))
            return trace

        monkeypatch.setattr(grid, "generate_trace", watching_generate)
        with _runner(tmp_path, "one") as runner:
            assert runner.sweep(specs).ok
            assert runner.sweep(
                specs, journal=SweepJournal(runner.cache, "one"),
            ).ok
        struck = tuple(s.label for s in specs if s.placement == "fast")
        with _runner(
            tmp_path, "struck", chaos=ChaosPlan(
                kill_labels=struck, marker_dir=str(tmp_path / "chaos"),
            ),
        ) as runner:
            assert runner.sweep(specs).ok
        assert max(alive) == 1
        assert len(alive) == 12  # each workload once per round

    def test_memo_is_bounded(self):
        # the memo holds the last trace only
        runner = ExperimentRunner()
        base = workload_by_name("trending").scaled(64)
        first = weakref.ref(runner.trace_for(base.with_seed(0)))
        newest = base.with_seed(1)
        assert runner.trace_for(newest) is runner.trace_for(newest)
        assert first() is None


class TestGroupedChaos:
    def test_mid_batch_kill_attributed_and_converges(
        self, grid_specs, reference, tmp_path,
    ):
        # the victim sits mid-batch: its strike fails its own spec only,
        # and the retry converges to bit-identical results with exactly
        # one strike delivered
        victim = grid_specs[1].label
        runner = _runner(
            tmp_path, "kill",
            chaos=ChaosPlan(
                kill_labels=(victim,), mode="raise",
                marker_dir=str(tmp_path / "chaos"),
            ),
        )
        with runner:
            outcome = runner.sweep(grid_specs)
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
            outcome = runner.sweep(grid_specs)
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
                outcome = runner.sweep(grid_specs)
        assert outcome.ok
        # one simulate path: every computed cell counts under the kernel
        assert _metric_total(tel, "memsim.path") == len(grid_specs)
        assert _metric_total(
            tel, "memsim.path", path="batch_kernel",
        ) == len(grid_specs)
        # no shared-memory traffic, and one way to sweep: the span
        # names no pool, plan or worker count
        assert _metric_total(tel, "runner.shm") == 0
        sweeps = [
            s for s in tel.tracer.records if s.name == "runner.sweep"
        ]
        assert [s.attrs for s in sweeps] == [{"n_specs": len(grid_specs)}]

    @pytest.mark.parametrize("journaled", [False, True],
                             ids=["plain", "journaled"])
    def test_cold_sweep_probes_the_store_once_per_cell(
        self, grid_specs, tmp_path, journaled,
    ):
        # plain or journaled, a cell's result is looked up exactly once
        # (the executor's probe), then computed and stored
        with telemetry.session() as tel:
            with ExperimentRunner(
                cache=str(tmp_path / "probe.db"),
                client=ClientConfig(repeats=2, seed=7), retry=FAST_RETRY,
            ) as runner:
                journal = (
                    SweepJournal(runner.cache, "probe") if journaled
                    else None
                )
                outcome = runner.sweep(grid_specs, journal=journal)
                runner.cache.close()
        assert set(outcome.provenance) == {"computed"}
        assert _metric_total(
            tel, "cache.lookup", kind="results", outcome="miss",
        ) == len(grid_specs)
        assert _metric_total(tel, "cache.lookup", kind="results") == len(
            grid_specs
        )
