"""The ``obs`` CLI: --obs capture, report rendering, logging flags."""

import json
import logging

import pytest

from repro.cli import main


@pytest.fixture
def captured_run(tmp_path):
    """A real ``sweep --obs`` capture (exit code, log path)."""
    sink = tmp_path / "run.jsonl"
    code = main([
        "sweep", "--workloads", "trending", "--engines", "redis",
        "--placements", "fast,slow", "--seed", "3",
        "--cache-dir", str(tmp_path / "cache"), "--obs", str(sink),
    ])
    return code, sink


class TestObsCapture:
    def test_sweep_obs_writes_a_log(self, captured_run):
        code, sink = captured_run
        assert code == 0
        lines = sink.read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "run"
        assert json.loads(lines[0])["attrs"]["command"] == "sweep"

    def test_obs_renders_the_report(self, captured_run, capsys):
        _, sink = captured_run
        capsys.readouterr()
        assert main(["obs", str(sink)]) == 0
        out = capsys.readouterr().out
        assert "span tree:" in out
        assert "runner.sweep" in out
        assert "runner.experiment" in out
        assert "cache:" in out
        assert "kernel path mix" in out

    def test_obs_prometheus_export(self, captured_run, capsys):
        _, sink = captured_run
        capsys.readouterr()
        assert main(["obs", str(sink), "--prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE memsim_path counter" in out
        assert 'memsim_path{path="batch_kernel"}' in out

    def test_obs_top_must_be_positive(self, captured_run, capsys):
        _, sink = captured_run
        assert main(["obs", str(sink), "--top", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_obs_empty_file_is_clean_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["obs", str(empty)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_obs_missing_file_is_clean_error(self, tmp_path, capsys):
        assert main(["obs", str(tmp_path / "nope.jsonl")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err


class TestLoggingFlags:
    def test_default_hides_diagnostics(self, capsys):
        assert main(["workloads"]) == 0
        assert logging.getLogger("repro.cli").getEffectiveLevel() \
            == logging.WARNING

    def test_verbose_enables_info(self):
        assert main(["-v", "workloads"]) == 0
        assert logging.getLogger("repro.cli").getEffectiveLevel() \
            == logging.INFO

    def test_double_verbose_enables_debug(self):
        assert main(["-vv", "workloads"]) == 0
        assert logging.getLogger("repro.cli").getEffectiveLevel() \
            == logging.DEBUG

    def test_quiet_raises_to_error(self):
        assert main(["--quiet", "workloads"]) == 0
        assert logging.getLogger("repro.cli").getEffectiveLevel() \
            == logging.ERROR

    def test_sweep_diagnostics_routed_to_logging(self, tmp_path, capsys):
        argv = [
            "sweep", "--workloads", "trending", "--engines", "redis",
            "--placements", "fast", "--seed", "3",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        quiet = capsys.readouterr()
        assert "sweeping" not in quiet.err  # diagnostics off by default
        assert "trending/redis/fast" in quiet.out  # the report still prints

        assert main(["-v", *argv]) == 0
        verbose = capsys.readouterr()
        assert "sweeping 1 experiment(s)" in verbose.err
        assert "completed 1/1" in verbose.err
        assert "sweeping" not in verbose.out  # never mixed into the report
