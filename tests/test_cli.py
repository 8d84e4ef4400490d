"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.ycsb import generate_trace, save_trace_csv, workload_by_name


@pytest.fixture
def small_csvs(tmp_path):
    trace = generate_trace(
        workload_by_name("trending").scaled(n_keys=100, n_requests=1_000)
    )
    return save_trace_csv(trace, tmp_path)


class TestWorkloads:
    def test_lists_table_iii(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("trending", "news_feed", "timeline", "edit_thumbnail",
                     "trending_preview"):
            assert name in out


class TestProfile:
    def test_builtin_workload(self, capsys):
        rc = main(["profile", "--workload", "trending",
                   "--downsample", "20", "--repeats", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "throughput gap" in out
        assert "slowdown SLO" in out

    def test_csv_descriptor_input(self, small_csvs, capsys, tmp_path):
        req, data = small_csvs
        out_csv = tmp_path / "curve.csv"
        rc = main(["profile", "--requests", str(req), "--dataset", str(data),
                   "--csv", str(out_csv), "--repeats", "1"])
        assert rc == 0
        assert out_csv.exists()
        header = out_csv.read_text().splitlines()[0]
        assert header == "key,estimated_throughput_ops_s,cost_factor"

    def test_plot_flag(self, small_csvs, capsys):
        req, data = small_csvs
        rc = main(["profile", "--requests", str(req), "--dataset", str(data),
                   "--plot", "--repeats", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cost factor (fraction of FastMem-only cost)" in out

    def test_weight_mode(self, small_csvs, capsys):
        req, data = small_csvs
        rc = main(["profile", "--requests", str(req), "--dataset", str(data),
                   "--mode", "weight", "--repeats", "1"])
        assert rc == 0
        assert "weight" in capsys.readouterr().out

    def test_missing_input_errors(self, capsys):
        rc = main(["profile"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_conflicting_input_errors(self, small_csvs, capsys):
        req, data = small_csvs
        rc = main(["profile", "--workload", "trending",
                   "--requests", str(req), "--dataset", str(data)])
        assert rc == 2

    def test_unknown_workload_errors(self, capsys):
        rc = main(["profile", "--workload", "nope"])
        assert rc == 2

    def test_header_only_requests_is_a_workload_error(self, tmp_path, capsys):
        req, data = tmp_path / "r.csv", tmp_path / "d.csv"
        req.write_text("key,op\n")
        data.write_text("key,size_bytes\n0,100\n1,200\n")
        rc = main(["profile", "--requests", str(req), "--dataset", str(data)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: trace 'r' has no requests: nothing to measure\n"

    def test_bad_percentile_is_a_config_error(self, monkeypatch, capsys):
        # `profile` has no percentile flag; a client default gone wrong
        # must still surface as exit 2 at construction, not as a bare
        # ValueError out of the first measurement
        from functools import partialmethod

        from repro.ycsb.client import YCSBClient

        monkeypatch.setattr(YCSBClient, "__init__", partialmethod(
            YCSBClient.__init__, percentiles=(50.0, 101.0),
        ))
        rc = main(["profile", "--workload", "trending", "--repeats", "1"])
        assert rc == 2
        assert "error: percentiles must lie in [0, 100]" in \
            capsys.readouterr().err


class TestCompare:
    def test_compare_lists_engines(self, capsys, monkeypatch):
        # shrink the workload for test speed by monkeypatching the lookup
        # the CLI looks generate_trace up in its leaf module per call
        import repro.ycsb.generator as generator_mod

        original = generator_mod.generate_trace

        def small_generate(spec):
            return original(spec.scaled(n_keys=100, n_requests=1_000))

        monkeypatch.setattr(generator_mod, "generate_trace", small_generate)
        rc = main(["compare", "--workload", "trending"])
        assert rc == 0
        out = capsys.readouterr().out
        for engine in ("redis", "memcached", "dynamodb"):
            assert engine in out


class TestPricing:
    def test_pricing_table(self, capsys):
        assert main(["pricing"]) == 0
        out = capsys.readouterr().out
        assert "cache.r5.large" in out
        assert "n1-ultramem-40" in out
        assert "M128ms" in out


@pytest.fixture
def small_workloads(monkeypatch):
    """Shrink built-in workloads so CLI runs finish in milliseconds."""
    # the CLI looks generate_trace up in its leaf module per call
    import repro.ycsb.generator as generator_mod

    original = generator_mod.generate_trace

    def small_generate(spec):
        return original(spec.scaled(n_keys=150, n_requests=2_000))

    monkeypatch.setattr(generator_mod, "generate_trace", small_generate)


class TestGuard:
    def test_clean_run_exits_zero(self, small_workloads, capsys):
        rc = main(["guard", "--workload", "trending",
                   "--repeats", "1", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "advice: keep" in out
        assert "validation: PASS" in out
        assert "[exit 0]" in out

    def test_rotated_live_trace_exits_three(self, small_workloads, capsys):
        rc = main(["guard", "--workload", "trending",
                   "--repeats", "1", "--seed", "3", "--live-rotate", "75"])
        assert rc == 3
        out = capsys.readouterr().out
        assert "advice: reprofile" in out
        assert "validation: REJECT" in out
        assert "fallback: re-planned" in out

    def test_no_validate_skips_replay(self, small_workloads, capsys):
        rc = main(["guard", "--workload", "trending",
                   "--repeats", "1", "--seed", "3", "--no-validate"])
        assert rc == 0
        assert "validation:" not in capsys.readouterr().out

    def test_cached_rerun_is_identical(self, small_workloads, capsys,
                                       tmp_path):
        argv = ["guard", "--workload", "trending", "--repeats", "1",
                "--seed", "3", "--live-rotate", "75",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 3
        first = capsys.readouterr().out
        assert main(argv) == 3
        assert capsys.readouterr().out == first

    def test_live_workload_option(self, small_workloads, capsys):
        rc = main(["guard", "--workload", "trending",
                   "--repeats", "1", "--seed", "3",
                   "--live-workload", "news_feed"])
        assert rc in (0, 1, 3)  # drift verdict depends on the pair
        assert "advice:" in capsys.readouterr().out


class TestSweep:
    @pytest.mark.parametrize("flag", [["--plan", "cell"], ["--no-shm"]])
    def test_dispatch_knobs_are_gone(self, capsys, flag):
        # one pooled plan, automatic shm fallback: the flags that chose
        # otherwise are argparse usage errors, not deprecated aliases
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--workloads", "trending", *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_pooled_stdout_equals_serial(self, small_workloads, capsys):
        argv = ["sweep", "--workloads", "trending,timeline",
                "--placements", "fast,slow,split", "--seed", "5"]
        assert main([*argv, "--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main([*argv, "--workers", "2"]) == 0
        assert capsys.readouterr().out == serial
        assert "timeline/redis/split0.20" in serial


class TestUsageErrors:
    """Malformed input dies with one clean line, never a traceback."""

    def assert_clean_usage_error(self, capsys, argv, fragment):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:")
        assert fragment in captured.err
        assert "Traceback" not in captured.err

    def test_slo_out_of_range(self, capsys):
        self.assert_clean_usage_error(
            capsys,
            ["profile", "--workload", "trending", "--slo", "1.5"],
            "--slo",
        )

    def test_negative_slo(self, capsys):
        self.assert_clean_usage_error(
            capsys,
            ["guard", "--workload", "trending", "--slo", "-0.1"],
            "--slo",
        )

    def test_split_out_of_range(self, capsys):
        self.assert_clean_usage_error(
            capsys,
            ["sweep", "--split", "1.5"],
            "--split must be in [0, 1], got 1.5",
        )

    def test_nonpositive_price_factor(self, capsys):
        self.assert_clean_usage_error(
            capsys,
            ["profile", "--workload", "trending", "--p", "0"],
            "--p",
        )

    def test_negative_downsample(self, capsys):
        self.assert_clean_usage_error(
            capsys,
            ["profile", "--workload", "trending", "--downsample", "-2"],
            "--downsample",
        )

    def test_unknown_fault_names_offending_token(self, capsys):
        self.assert_clean_usage_error(
            capsys,
            ["sweep", "--faults", "spikes,bogus"],
            "'bogus'",
        )

    def test_bad_fault_parameter_value(self, capsys):
        self.assert_clean_usage_error(
            capsys,
            ["sweep", "--faults", "spikes(rate=oops)"],
            "'oops'",
        )

    def test_malformed_fault_spec(self, capsys):
        self.assert_clean_usage_error(
            capsys,
            ["sweep", "--faults", "spikes(("],
            "--faults",
        )

    def test_unknown_sweep_engine(self, capsys):
        self.assert_clean_usage_error(
            capsys,
            ["sweep", "--engines", "sqlite"],
            "'sqlite'",
        )

    @pytest.mark.parametrize("leaf", ["cache-dir", "store.db"])
    def test_unopenable_cache_path_names_it(self, capsys, tmp_path, leaf):
        plain = tmp_path / "plain"
        plain.write_text("a file, not a directory")
        self.assert_clean_usage_error(
            capsys,
            ["profile", "--workload", "trending", "--downsample", "20",
             "--repeats", "1", "--cache-dir", str(plain / "sub" / leaf)],
            str(plain / "sub" / leaf),
        )

    def test_unopenable_sweep_store_names_it(self, capsys, tmp_path):
        plain = tmp_path / "plain"
        plain.write_text("a file, not a directory")
        self.assert_clean_usage_error(
            capsys,
            ["sweep", "--store", str(plain / "sub" / "x.db")],
            str(plain / "sub" / "x.db"),
        )


class TestClosedStdout:
    """A reader that went away ends the run quietly with 128 + SIGPIPE."""

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_broken_pipe_exits_141_without_traceback(self, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = Path(repro.__file__).resolve().parent.parent
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "workloads"],
                stdout=write_end, stderr=subprocess.PIPE, timeout=60,
                env={**os.environ, "PYTHONPATH": str(src),
                     "PYTHONUNBUFFERED": unbuffered},
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 141
