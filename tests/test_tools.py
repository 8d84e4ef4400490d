"""Tests for the scripts under ``tools/``."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

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

