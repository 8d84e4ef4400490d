"""Telemetry is off-path: enabling it cannot change a single bit.

The noise streams of every measurement derive from the experiment
fingerprint, so if telemetry stayed off the RNG/fingerprint path, a
sweep with a session active is *equal* (dataclass equality covers every
measured number) to one without.  A sweep's spans must also form one
consistent tree.
"""

from repro import telemetry
from repro.runner import ClientConfig, ExperimentRunner
from repro.telemetry.events import read_jsonl
from repro.telemetry.spans import build_tree


def _runner(tmp_path, sub="cache"):
    return ExperimentRunner(
        cache=str(tmp_path / sub), client=ClientConfig(seed=7),
    )


class TestBitIdentical:
    def test_sweep_identical_with_and_without_session(
        self, tiny_specs, tmp_path,
    ):
        baseline = _runner(tmp_path, "a").sweep(tiny_specs)

        runner_on = _runner(tmp_path, "b")  # fresh cache: measures, not recalls
        with telemetry.session(sink=tmp_path / "on.jsonl"):
            observed = runner_on.sweep(tiny_specs)

        assert observed.results == baseline.results
        assert observed.ok and baseline.ok

    def test_fingerprints_unchanged_under_session(self, tiny_specs, tmp_path):
        runner = _runner(tmp_path)
        trace = runner.trace_for(tiny_specs[0].workload)
        plain = [runner.spec_fingerprint(s, trace) for s in tiny_specs]
        with telemetry.session():
            under = [runner.spec_fingerprint(s, trace) for s in tiny_specs]
        assert under == plain

    def test_cached_recall_identical_and_tagged(self, tiny_specs, tmp_path):
        runner = _runner(tmp_path)
        cold = runner.sweep(tiny_specs)
        assert set(cold.provenance) == {"computed"}
        with telemetry.session():
            warm = _runner(tmp_path).sweep(tiny_specs)
        assert warm.results == cold.results
        assert set(warm.provenance) == {"cache"}


class TestOutcomeMeta:
    def test_durations_and_provenance_parallel_results(
        self, tiny_specs, tmp_path,
    ):
        outcome = _runner(tmp_path).sweep(tiny_specs)
        assert len(outcome.durations) == len(outcome.results)
        assert all(d is not None and d > 0 for d in outcome.durations)
        assert all(p == "computed" for p in outcome.provenance)

    def test_uncached_runner_tags_uncached(self, tiny_specs):
        outcome = ExperimentRunner(
            cache=None, client=ClientConfig(seed=7),
        ).sweep(tiny_specs[:1])
        assert outcome.provenance == ("uncached",)

    def test_summary_surfaces_timing_and_provenance(
        self, tiny_specs, tmp_path,
    ):
        runner = _runner(tmp_path)
        runner.sweep(tiny_specs)  # warm the cache
        text = _runner(tmp_path).sweep(tiny_specs).summary()
        assert "completed 3/3" in text
        assert "3 cache" in text
        assert "slowest:" in text


class TestSpanTree:
    def test_experiment_spans_hang_under_the_sweep(
        self, two_workload_specs, tmp_path,
    ):
        sink = tmp_path / "run.jsonl"
        with telemetry.session(sink=sink):
            outcome = _runner(tmp_path).sweep(two_workload_specs)
        assert outcome.ok

        records, problems = read_jsonl(sink)
        assert problems == []
        spans = [r for r in records if r["kind"] == "span"]
        roots, children = build_tree(spans)
        assert [r["name"] for r in roots] == ["runner.sweep"]

        experiments = children[roots[0]["span"]]
        assert {s["name"] for s in experiments} == {"runner.experiment"}
        labels = [s["attrs"]["label"] for s in experiments]
        assert sorted(labels) == sorted(s.label for s in two_workload_specs)
