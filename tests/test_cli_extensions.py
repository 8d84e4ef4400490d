"""Tests for the extension CLI subcommands (drift / retier / multitier)."""

import pytest

from repro.cli import main
from repro.store import SQLiteStore, SweepJournal


@pytest.fixture(autouse=True)
def small_workloads(monkeypatch):
    """Shrink the built-in workloads so CLI tests stay fast."""
    # the CLI looks generate_trace up in its leaf module per call
    import repro.ycsb.generator as generator_mod

    original = generator_mod.generate_trace

    def small_generate(spec):
        return original(spec.scaled(n_keys=200, n_requests=4_000))

    monkeypatch.setattr(generator_mod, "generate_trace", small_generate)


class TestDriftCommand:
    def test_stationary_workload(self, capsys):
        assert main(["drift", "--workload", "trending"]) == 0
        out = capsys.readouterr().out
        assert "drift" in out
        assert "static placement" in out

    def test_drifting_workload(self, capsys):
        assert main(["drift", "--workload", "news_feed",
                     "--capacity", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "dynamic tiering" in out or "drifts" in out

    def test_unknown_workload(self, capsys):
        assert main(["drift", "--workload", "nope"]) == 2


class TestRetierCommand:
    def test_static_verdict(self, capsys):
        assert main(["retier", "--workload", "trending"]) == 0
        out = capsys.readouterr().out
        assert "stay static" in out

    def test_migrate_verdict(self, capsys):
        assert main(["retier", "--workload", "news_feed",
                     "--capacity", "0.15"]) == 0
        out = capsys.readouterr().out
        assert "net speedup" in out

    def test_engine_option(self, capsys):
        assert main(["retier", "--workload", "trending",
                     "--engine", "memcached"]) == 0
        assert "memcached" in capsys.readouterr().out


class TestMultitierCommand:
    def test_frontier_and_choice(self, capsys):
        assert main(["multitier", "--workload", "timeline",
                     "--grid", "6"]) == 0
        out = capsys.readouterr().out
        assert "DRAM" in out
        assert "choice @10% SLO" in out

    def test_custom_slo(self, capsys):
        assert main(["multitier", "--workload", "timeline",
                     "--grid", "6", "--slo", "0.25"]) == 0
        assert "choice @25% SLO" in capsys.readouterr().out


class TestSweepCommand:
    def test_grid_table(self, capsys, tmp_path):
        assert main(["sweep", "--workloads", "trending",
                     "--engines", "redis,memcached",
                     "--placements", "fast,slow",
                     "--cache-dir", str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert "trending/redis/fast" in out
        assert "trending/memcached/slow" in out

    def test_rerun_is_identical(self, capsys, tmp_path):
        argv = ["sweep", "--workloads", "trending", "--engines", "redis",
                "--placements", "slow", "--seed", "7",
                "--cache-dir", str(tmp_path / "c")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_unknown_workload_errors(self, capsys, tmp_path):
        assert main(["sweep", "--workloads", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_run_id_and_resume_take_either_spelling(self, capsys, tmp_path):
        # --cache-dir and --store are one option: a run journaled under
        # one spelling resumes under the other, to the same table
        argv = ["sweep", "--workloads", "trending", "--engines", "redis",
                "--placements", "fast,slow", "--seed", "7"]
        store = str(tmp_path / "x")
        assert main(argv + ["--cache-dir", store, "--run-id", "r"]) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--store", store, "--resume", "r"]) == 0
        assert capsys.readouterr().out == first
        journal = SweepJournal(SQLiteStore(store), "r")
        starts = journal.entries(kind="sweep_started")
        assert [e.payload["resumed"] for e in starts] == [False, True]
        # both cells came from the journal: nothing was checkpointed twice
        assert len(journal.entries(kind="experiment_done")) == 2
        journal.store.close()
        assert main(argv + ["--run-id", "r"]) == 2
        assert "add --store" in capsys.readouterr().err


class TestCacheCommand:
    def test_stats_and_clear(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "c")
        assert main(["sweep", "--workloads", "trending",
                     "--engines", "redis", "--placements", "slow",
                     "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "results" in out and "traces" in out
        assert main(["cache", "clear", "--dir", cache_dir]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "stats", "--dir", cache_dir]) == 0
        assert " 0 entries" in capsys.readouterr().out

    def test_verify_reports_sqlites_own_check_too(self, capsys, tmp_path):
        store = str(tmp_path / "s.db")
        assert main(["sweep", "--workloads", "trending", "--engines",
                     "redis", "--placements", "slow", "--store", store]) == 0
        capsys.readouterr()
        assert main(["cache", "verify", "--dir", store]) == 0
        out = capsys.readouterr().out
        assert "integrity_check: ok" in out and "all entries intact" in out

    @pytest.mark.parametrize("action", ["stats", "verify", "clear"])
    def test_inspecting_a_missing_store_never_creates_one(
        self, capsys, tmp_path, monkeypatch, action,
    ):
        # a typo must not come back as an empty store with "all intact"
        monkeypatch.chdir(tmp_path)
        for argv in (["--dir", str(tmp_path / "typo.db")], []):
            assert main(["cache", action] + argv) == 2
            named = argv[-1] if argv else "mnemo.db"
            assert f"no store at {named}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
