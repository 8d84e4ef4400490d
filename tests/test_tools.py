"""Tests for the scripts under ``tools/``."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import ab_bench  # noqa: E402
import collect_results  # noqa: E402
import import_report  # noqa: E402


class TestCollect:
    def test_collates_in_paper_order(self, tmp_path):
        (tmp_path / "fig9_cost_reduction.txt").write_text("== fig9 ==\n")
        (tmp_path / "fig1_pricing.txt").write_text("== fig1 ==\n")
        (tmp_path / "zzz_custom.txt").write_text("== custom ==\n")
        doc = collect_results.collect(tmp_path)
        assert doc.index("fig1") < doc.index("fig9") < doc.index("custom")
        assert "3 experiments" in doc

    def test_missing_directory_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            collect_results.collect(tmp_path / "nope")

    def test_main_writes_target(self, tmp_path, monkeypatch):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "fig1_pricing.txt").write_text("== fig1 ==\n")
        monkeypatch.setattr(collect_results, "OUT_DIR", out_dir)
        target = tmp_path / "RESULTS.md"
        assert collect_results.main(["prog", str(target)]) == 0
        assert target.exists()
        assert "fig1" in target.read_text()


class TestImportReport:
    def test_rolls_self_time_up_by_package(self):
        text = import_report.render(
            "pkg.cli", {"pkg": 1_000, "pkg.cli": 3_000, "numpy": 6_000},
        )
        assert "10.0 ms self time over 3 modules" in text
        lines = text.splitlines()
        assert lines.index("       6.0 ms  60.0%  numpy") \
            < lines.index("       4.0 ms  40.0%  pkg")
        assert "       3.0 ms  pkg.cli" in lines

    def test_measures_a_fresh_interpreter(self, monkeypatch):
        src = Path(__file__).resolve().parent.parent / "src"
        monkeypatch.setenv("PYTHONPATH", str(src))
        times = import_report.self_times_us("repro")
        assert {"repro", "repro._lazy"} <= set(times)
        assert not any(name.startswith("numpy") for name in times)

    def test_unknown_module_exits_with_the_import_error(self):
        with pytest.raises(SystemExit, match="no_such_module"):
            import_report.self_times_us("no_such_module")


class TestAbBench:
    LOWER = [{"name": "op_p50_ms", "better": "lower"}]

    @staticmethod
    def result(ms, correct=True, failed=0):
        return {"correct": correct, "attempted": 10, "failed": failed,
                "metrics": {"op_p50_ms": {"value": ms, "unit": "ms"}}}

    def test_sides_alternate_and_share_a_seed(self):
        calls = []

        def run(side, seed):
            calls.append((side, seed))
            return self.result(1.0)

        results = ab_bench.run_pairs(run, 3)
        assert calls == [
            ("parent", 1), ("change", 1),
            ("change", 2), ("parent", 2),
            ("parent", 3), ("change", 3),
        ]
        assert [set(pair) for pair in results] == [{"parent", "change"}] * 3

    def test_verdict_needs_nine_wins_in_ten_and_a_gap_over_the_spread(self):
        parent = [30.0, 31.0, 32.0, 33.0, 34.0, 30.5, 31.5, 32.5, 33.5, 34.5]
        faster = [p - 10.0 for p in parent]
        v = ab_bench.verdict(parent, faster, "lower")
        assert (v["wins"], v["losses"], v["verdict"]) == (10, 0, "better")
        assert v["parent"] == ab_bench.quartiles(parent)
        # the same numbers are a loss where higher is better
        assert ab_bench.verdict(parent, faster, "higher")["verdict"] == "worse"
        # eight wins: not enough, whatever the gap
        mixed = faster[:8] + [p + 1.0 for p in parent[8:]]
        assert ab_bench.verdict(parent, mixed, "lower")["verdict"] == \
            "unresolved"
        # ten wins inside the parent's own quartile spread: not resolved
        nudged = [p - 0.1 for p in parent]
        v = ab_bench.verdict(parent, nudged, "lower")
        assert (v["wins"], v["verdict"]) == (10, "unresolved")
        # ties count for neither side
        v = ab_bench.verdict(parent, parent, "lower")
        assert (v["wins"], v["losses"], v["verdict"]) == (0, 0, "unresolved")

    def test_quartiles_interpolate(self):
        assert ab_bench.quartiles([4.0, 1.0, 2.0, 3.0]) == (1.75, 2.5, 3.25)
        assert ab_bench.quartiles([7.0]) == (7.0, 7.0, 7.0)

    @pytest.mark.parametrize("broken, status", [
        ({}, 0), ({"correct": False}, 1), ({"failed": 2}, 1),
    ])
    def test_exit_status_follows_the_runs(
        self, monkeypatch, capsys, broken, status,
    ):
        def runner(roots, workload, seconds):
            assert (workload, seconds) == ("profile_cold", 3.0)
            return lambda side, seed: self.result(
                20.0 if side == "change" else 30.0,
                **(broken if (side, seed) == ("change", 2) else {}),
            )

        monkeypatch.setattr(ab_bench, "unpack", lambda rev, dest: None)
        monkeypatch.setattr(ab_bench, "harness_runner", runner)
        rc = ab_bench.main([
            "--parent", "HEAD", "--workload", "profile_cold",
            "--pairs", "2", "--seconds", "3",
        ])
        out = capsys.readouterr().out
        assert rc == status
        assert "op_p50_ms" in out and "2/2   better" in out
        assert ("FAILED pair 2 change" in out) == bool(status)


class TestBenchSummary:
    """`benchmarks/common.write_summary`: smoke runs leave BENCH_*.json alone."""

    @pytest.fixture
    def common(self, tmp_path, monkeypatch):
        from importlib.util import module_from_spec, spec_from_file_location

        path = Path(__file__).resolve().parent.parent / "benchmarks/common.py"
        spec = spec_from_file_location("bench_common_under_test", path)
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
        monkeypatch.setattr(module, "OUT_DIR", tmp_path / "out")
        return module

    def test_smoke_run_writes_out_dir_only(self, common, tmp_path):
        committed = tmp_path / "BENCH_x.json"
        committed.write_text("committed\n")
        common.write_summary("x", {"mode": "smoke", "speedup": 2.5}, committed)
        assert committed.read_text() == "committed\n"
        assert '"speedup": 2.5' in (tmp_path / "out" / "x.json").read_text()

    def test_full_run_refreshes_committed_copy(self, common, tmp_path):
        committed = tmp_path / "BENCH_x.json"
        common.write_summary("x", {"mode": "full", "speedup": 4.0}, committed)
        assert committed.read_text() == \
            (tmp_path / "out" / "x.json").read_text() + "\n"

