"""Tests for the durable SQLite-backed experiment store.

The store's contract: checksummed entry envelopes, a
quarantine-and-recompute corruption policy, durability
(single-transaction writes), an append-only oplog, SQL-queryable
censuses — and only structured errors when the file itself rots.
"""

import json
import shutil

import numpy as np
import pytest

from repro.errors import ConfigurationError, ReproError, StoreError
from repro.faults import corrupt_store_rows
from repro.runner.cache import SCHEMA_VERSION, ensure_cache
from repro.runner.fingerprint import array_digest, trace_fingerprint
from repro.store import SQLiteStore, SweepJournal
from repro.ycsb.client import RunResult


@pytest.fixture
def store(tmp_path):
    """A fresh store in a temp file."""
    st = SQLiteStore(tmp_path / "mnemo.db")
    yield st
    st.close()


@pytest.fixture
def result():
    """A representative RunResult with float percentile keys."""
    return RunResult(
        workload="w", engine="redis", n_requests=100, n_reads=60,
        n_writes=40, runtime_ns=1.5e8, avg_read_ns=1200.5,
        avg_write_ns=1500.25,
        latency_percentiles_ns={50.0: 900.0, 99.0: 4000.125},
        repeats=3, runtime_std_ns=12.5, concurrency=2,
    )


class TestRoundTrips:
    def test_result_roundtrip_is_exact(self, store, result):
        store.put_result("fp1", result)
        assert store.get_result("fp1") == result

    def test_percentile_keys_restored_as_floats(self, store, result):
        store.put_result("fp1", result)
        got = store.get_result("fp1")
        assert set(got.latency_percentiles_ns) == {50.0, 99.0}

    def test_trace_roundtrip(self, store, small_trace):
        store.put_trace("t1", small_trace)
        got = store.get_trace("t1")
        assert got.name == small_trace.name
        assert np.array_equal(got.keys, small_trace.keys)
        assert np.array_equal(got.is_read, small_trace.is_read)
        assert np.array_equal(got.record_sizes, small_trace.record_sizes)

    def test_hitmask_roundtrip(self, store):
        mask = np.array([True, False, True])
        store.put_hitmask("h1", mask)
        assert np.array_equal(store.get_hitmask("h1"), mask)

    def test_verdict_roundtrip(self, store):
        payload = {"status": "pass", "n_fast_keys": 42, "points": [1, 2, 3]}
        store.put_verdict("v1", payload)
        assert store.get_verdict("v1") == payload

    def test_missing_returns_none(self, store):
        assert store.get_result("nope") is None
        assert store.get_trace("nope") is None
        assert store.get_hitmask("nope") is None
        assert store.get_verdict("nope") is None

    def test_overwrite_replaces(self, store, result):
        store.put_verdict("v", {"status": "pass"})
        store.put_verdict("v", {"status": "reject"})
        assert store.get_verdict("v") == {"status": "reject"}
        assert store.stats().entries["verdicts"] == 1


class TestCorruption:
    def test_corrupt_row_quarantined_as_miss(self, store, result):
        store.put_result("fp1", result)
        corrupt_store_rows(store, kinds=("results",))
        assert store.get_result("fp1") is None
        assert store.stats().quarantined["results"] == 1
        # the entry is gone from the live table, so reruns recompute
        assert store.stats().entries["results"] == 0

    def test_truncated_blob_detected(self, store, small_trace):
        store.put_trace("t1", small_trace)
        corrupt_store_rows(store, kinds=("traces",), mode="truncate")
        assert store.get_trace("t1") is None
        assert store.stats().quarantined["traces"] == 1

    def test_flipped_byte_in_trace_and_hitmask_blobs_quarantined(
        self, store, small_trace,
    ):
        # the deflate-1 NPZ blobs keep the quarantine-and-miss contract
        store.put_trace("t1", small_trace)
        store.put_hitmask("h1", np.arange(4_000) % 3 == 0)
        assert corrupt_store_rows(
            store, kinds=("traces", "hitmasks"), mode="flip",
        ) == ["t1", "h1"]
        assert store.get_trace("t1") is None
        assert store.get_hitmask("h1") is None
        stats = store.stats()
        assert stats.quarantined["traces"] == 1
        assert stats.quarantined["hitmasks"] == 1
        assert stats.entries["traces"] == stats.entries["hitmasks"] == 0

    def test_rows_written_by_the_savez_compressed_codec_still_read(
        self, store, small_trace, savez_compressed_blob,
    ):
        # a store file written before the codec had its own NPZ writer
        mask = np.arange(4_000) % 3 == 0
        store._put("traces", "t1", savez_compressed_blob(
            name=small_trace.name, keys=small_trace.keys,
            is_read=small_trace.is_read,
            record_sizes=small_trace.record_sizes,
            checksum=trace_fingerprint(small_trace),
        ))
        store._put("hitmasks", "h1", savez_compressed_blob(
            mask=mask, checksum=array_digest(mask),
        ))
        got = store.get_trace("t1")
        assert trace_fingerprint(got) == trace_fingerprint(small_trace)
        assert got.name == small_trace.name
        assert np.array_equal(store.get_hitmask("h1"), mask)
        assert store.verify().ok

    def test_verify_reports_and_repairs(self, store, result):
        store.put_result("good", result)
        store.put_result("bad", result)
        corrupt_store_rows(store, kinds=("results",), limit=1)
        report = store.verify()
        assert not report.ok
        assert report.corrupt["results"] == ("bad",)
        # repaired: the corrupt row moved to quarantine
        assert store.verify().ok
        assert store.get_result("good") == result

    def test_schema_stale_row_is_a_miss_not_corruption(self, store, result):
        store.put_result("fp1", result)

        def bump(conn):
            conn.execute(
                "UPDATE entries SET body = ? WHERE fingerprint = 'fp1'",
                (json.dumps(
                    {"schema": SCHEMA_VERSION + 1, "checksum": "x",
                     "result": {}},
                ).encode(),),
            )

        store.db.write_txn(bump)
        assert store.get_result("fp1") is None
        assert store.stats().quarantined["results"] == 0


class TestMaintenance:
    def test_stats_counts_kinds(self, store, result, small_trace):
        store.put_result("a", result)
        store.put_result("b", result)
        store.put_trace("t", small_trace)
        stats = store.stats()
        assert stats.entries["results"] == 2
        assert stats.entries["traces"] == 1
        assert stats.entries["hitmasks"] == 0
        assert stats.total_entries == 3
        assert stats.total_bytes > 0

    def test_fingerprints_sorted(self, store, result):
        for fp in ("c", "a", "b"):
            store.put_result(fp, result)
        assert store.fingerprints("results") == ["a", "b", "c"]

    def test_clear_keeps_oplog(self, store, result):
        store.put_result("a", result)
        store.oplog.append("run1", "sweep_started", n_specs=1)
        assert store.clear() == 1
        assert store.get_result("a") is None
        assert len(store.oplog.entries("run1")) == 1

    def test_integrity_check_ok(self, store, result):
        store.put_result("a", result)
        assert store.integrity_check() == "ok"

    def test_close_is_idempotent(self, tmp_path):
        store = SQLiteStore(tmp_path / "x.db")
        store.close()
        store.close()

    def test_reopen_sees_previous_writes(self, tmp_path, result):
        path = tmp_path / "x.db"
        st = SQLiteStore(path)
        st.put_result("fp1", result)
        st.close()
        st2 = SQLiteStore(path)
        try:
            assert st2.get_result("fp1") == result
        finally:
            st2.close()


class TestOplog:
    def test_append_returns_monotonic_seqs(self, store):
        seqs = [store.oplog.append("r", "tick", n=i) for i in range(3)]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 3

    def test_entries_filter_by_run_and_kind(self, store):
        store.oplog.append("r1", "a", x=1)
        store.oplog.append("r2", "a", x=2)
        store.oplog.append("r1", "b", x=3)
        assert [e.payload["x"] for e in store.oplog.entries("r1")] == [1, 3]
        assert [e.kind for e in store.oplog.entries("r1", kind="b")] == ["b"]

    def test_runs_census(self, store):
        store.oplog.append("old", "a")
        store.oplog.append("new", "a")
        store.oplog.append("new", "b")
        assert store.oplog.runs() == [("new", 2), ("old", 1)]

    def test_describe_is_one_line(self, store):
        store.oplog.append("r", "tick", n=1)
        line = store.oplog.entries("r")[0].describe()
        assert "tick" in line and "\n" not in line


class TestJournal:
    def test_empty_run_id_rejected(self, store):
        with pytest.raises(StoreError, match="run id"):
            SweepJournal(store, "")

    def test_begin_record_finish_lifecycle(self, store):
        j = SweepJournal(store, "run")
        assert not j.started()
        assert j.begin(["a", "b"]) is False  # fresh, not a resume
        j.record(0, "a", "fp-a")
        assert j.completed() == {"fp-a": "a"}
        assert not j.finished()
        j.finish(completed=1, failed=1)
        assert j.finished()

    def test_second_begin_is_a_resume(self, store):
        j = SweepJournal(store, "run")
        j.begin(["a"])
        j2 = SweepJournal(store, "run")
        assert j2.begin(["a"]) is True
        assert len(j2.entries(kind="sweep_started")) == 2


class TestPageRot:
    """Rot below the row level: SQLite's own pages, flipped one at a time."""

    @staticmethod
    def _act(path, op, result):
        store = SQLiteStore(path)
        try:
            if op == "get_result":
                return store.get_result("a")
            if op == "put_result":
                return store.put_result("new", result)
            if op == "stats":
                return store.stats().total_entries
            return store.verify(repair=False).total_checked
        finally:
            store.close()

    def test_every_flipped_page_ends_in_an_answer_or_a_repro_error(
        self, tmp_path, result, small_trace,
    ):
        pristine = tmp_path / "pristine.db"
        store = SQLiteStore(pristine)
        for fp in ("a", "b", "c"):
            store.put_result(fp, result)
        store.put_trace("t", small_trace)
        store.put_hitmask("h", np.arange(4_000) % 3 == 0)
        store.put_verdict("v", {"status": "pass"})
        store.oplog.append("run", "tick", n=1)
        page_size = store.db.read("PRAGMA page_size")[0][0]
        store.close()  # checkpoints: every page now lives in the main file
        n_pages = pristine.stat().st_size // page_size
        assert n_pages >= 8

        outcomes = set()
        for page in range(n_pages):
            # the 100-byte file header stays, as on a real device where
            # the first sector is the one most often rewritten
            lo = page * page_size + (100 if page == 0 else 0)
            hi = (page + 1) * page_size
            for op in ("get_result", "put_result", "stats", "verify"):
                rotted = tmp_path / f"rot{page}-{op}.db"  # no stale WAL
                shutil.copy(pristine, rotted)
                with open(rotted, "r+b") as fh:
                    fh.seek(lo)
                    chunk = fh.read(hi - lo)
                    fh.seek(lo)
                    fh.write(bytes(b ^ 0xFF for b in chunk))
                try:
                    got = self._act(rotted, op, result)
                except ReproError as exc:  # never a sqlite3.Error
                    assert str(rotted) in str(exc)
                    outcomes.add(type(exc).__name__)
                else:
                    if op == "get_result":
                        assert got in (None, result)
                    outcomes.add("answer")
        assert {"answer", "StoreError"} <= outcomes


class TestEnsure:
    def test_ensure_cache_builds_store_for_db_path(self, tmp_path):
        built = ensure_cache(tmp_path / "x.db")
        assert isinstance(built, SQLiteStore)
        built.close()

    def test_unopenable_store_path_is_a_configuration_error(self, tmp_path):
        plain = tmp_path / "plain"
        plain.write_text("a file, not a directory")
        uncreatable = plain / "deep" / "x.db"
        with pytest.raises(ConfigurationError, match=str(uncreatable)):
            ensure_cache(uncreatable)
        not_a_database = tmp_path / "notes.db"
        not_a_database.write_text("forty bytes of text, not a SQLite header\n")
        with pytest.raises(ConfigurationError, match="not a database"):
            ensure_cache(not_a_database)
