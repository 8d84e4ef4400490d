"""Tests for the durable SQLite-backed experiment store.

The store's contract: one row format (a SHA-256 digest over the stored
payload, under the row's ``schema`` column), a quarantine-and-recompute
corruption policy, durability (single-transaction writes), an
append-only oplog, SQL-queryable censuses — and only structured errors
when the file itself rots.
"""

import dataclasses
import hashlib
import json
import shutil

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import ConfigurationError, ReproError, StoreError
from repro.faults import corrupt_store_rows
from repro.runner.cache import SCHEMA_VERSION, ensure_cache
from repro.runner.fingerprint import array_digest, trace_fingerprint
from repro.store import SQLiteStore, SweepJournal
from repro.ycsb.client import RunResult
from repro.ycsb.workload import Trace

KINDS = ("results", "traces", "hitmasks")


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


def stored(store, kind, fingerprint) -> bytes:
    """The body one current entry holds."""
    return bytes(store._rows(kind, [fingerprint])[fingerprint]["body"])


def overwrite(store, kind, fingerprint, body) -> None:
    """Replace one entry's body below the codec (rot, or an older build)."""
    store.db.write_txn(lambda conn: conn.execute(
        "UPDATE entries SET body = ? WHERE kind = ? AND fingerprint = ?",
        (body, kind, fingerprint),
    ))


def seal(payload: bytes) -> bytes:
    """A current entry body around *payload*: its digest, then itself."""
    return hashlib.sha256(payload).digest() + payload


def restamp(store, kind, fingerprint, schema) -> None:
    """Move one entry to another schema through SQL, body untouched."""
    store.db.write_txn(lambda conn: conn.execute(
        "UPDATE entries SET schema = ? WHERE kind = ? AND fingerprint = ?",
        (schema, kind, fingerprint),
    ))


def put(store, kind, fingerprint, value) -> None:
    """Store *value* as an entry of *kind*."""
    getattr(store, "put_" + kind[:-1])(fingerprint, value)


def get(store, kind, fingerprint):
    """Recall an entry of *kind* (None on a miss)."""
    return getattr(store, "get_" + kind[:-1])(fingerprint)


#: One small value per entry kind.
VALUES = {
    "results": RunResult(
        workload="w", engine="redis", n_requests=3, n_reads=2, n_writes=1,
        runtime_ns=-0.0, avg_read_ns=5e-324, avg_write_ns=1.5,
        latency_percentiles_ns={0.0: 1.0, 99.9: 2.0},
    ),
    "traces": Trace(
        name="t", keys=np.arange(60) % 7, is_read=np.arange(60) % 3 > 0,
        record_sizes=np.arange(1, 8) * 100,
    ),
    "hitmasks": np.arange(300) % 5 == 0,
}


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

    def test_missing_returns_none(self, store):
        assert store.get_result("nope") is None
        assert store.get_trace("nope") is None
        assert store.get_hitmask("nope") is None

    def test_overwrite_replaces(self, store, result):
        store.put_result("r", result)
        newer = dataclasses.replace(result, n_requests=result.n_requests + 1)
        store.put_result("r", newer)
        assert store.get_result("r") == newer
        assert store.stats().entries["results"] == 1


class TestBatchRows:
    """A batch's results are one read and one transaction."""

    def test_many_rows_in_one_read_and_one_commit(
        self, store, result, monkeypatch,
    ):
        io = {"read": 0, "write_txn": 0}
        for name in io:
            real = getattr(store.db, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                io[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(store.db, name, counted)
        rows = {f"fp{k}": dataclasses.replace(result, n_requests=k)
                for k in range(1, 1001)}
        store.put_results(rows.items())
        assert io == {"read": 0, "write_txn": 1}
        got = store.get_results(["none", *rows, "fp7"])
        assert got == rows
        # 1,002 fingerprints (1,001 distinct) in chunks of 900
        assert io == {"read": 2, "write_txn": 1}

    def test_a_corrupt_row_leaves_its_batch_mates(self, store, result):
        store.put_results([("good", result), ("bad", result)])
        overwrite(store, "results", "bad", seal(b"not json"))
        assert store.get_results(["good", "bad"]) == {"good": result}
        assert store.stats().quarantined["results"] == 1
        assert store.get_results(["good", "bad"]) == {"good": result}


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
        # deflate-6 NPZ payloads, sealed under the current schema, read
        # as the codec's own deflate-1 ones do
        mask = np.arange(4_000) % 3 == 0
        store.put_trace("t1", small_trace)
        store.put_hitmask("h1", mask)
        overwrite(store, "traces", "t1", seal(savez_compressed_blob(
            name=small_trace.name, keys=small_trace.keys,
            is_read=small_trace.is_read,
            record_sizes=small_trace.record_sizes,
        )))
        overwrite(store, "hitmasks", "h1", seal(savez_compressed_blob(
            mask=mask,
        )))
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
        restamp(store, "results", "fp1", SCHEMA_VERSION - 1)
        assert store.get_result("fp1") is None
        assert store.stats().quarantined["results"] == 0


class TestStaleRows:
    """A row of another schema is a miss for every read, of every kind."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_restamped_row_is_an_unverified_miss(self, store, kind):
        put(store, kind, "old", VALUES[kind])
        restamp(store, kind, "old", SCHEMA_VERSION - 1)
        assert get(store, kind, "old") is None
        assert store.fingerprints(kind) == []
        stats = store.stats()
        assert stats.entries[kind] == 0 and stats.total_quarantined == 0
        report = store.verify()
        assert report.ok and report.checked[kind] == 0
        assert store.stats().total_quarantined == 0  # never quarantined
        assert store.clear() == 1
        assert store.db.read("SELECT COUNT(*) FROM entries")[0][0] == 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_v2_row_is_a_miss_never_quarantined(
        self, store, kind, savez_compressed_blob,
    ):
        # the bodies builds before the digest-sealed rows wrote
        value = VALUES[kind]
        if kind == "results":
            body = json.dumps({
                "schema": 2, "checksum": "0" * 64,
                "result": dataclasses.asdict(value),
            }, indent=1).encode()
        elif kind == "traces":
            body = savez_compressed_blob(
                name=value.name, keys=value.keys, is_read=value.is_read,
                record_sizes=value.record_sizes,
                checksum=trace_fingerprint(value),
            )
        else:
            body = savez_compressed_blob(
                mask=value, checksum=array_digest(value),
            )
        store.db.write_txn(lambda conn: conn.execute(
            "INSERT INTO entries (kind, fingerprint, schema, body,"
            " created_at) VALUES (?, 'v2', 2, ?, 0.0)", (kind, body),
        ))
        assert get(store, kind, "v2") is None
        assert store.verify().total_checked == 0
        assert store.stats().total_quarantined == 0
        # recomputed into the same key, the current row wins
        put(store, kind, "v2", value)
        assert get(store, kind, "v2") is not None
        assert store.fingerprints(kind) == ["v2"]

    def test_verify_checks_what_stats_counts(self, store):
        for kind in KINDS:
            put(store, kind, "now", VALUES[kind])
            put(store, kind, "old", VALUES[kind])
            restamp(store, kind, "old", SCHEMA_VERSION - 1)
        put(store, "results", "now2", VALUES["results"])
        store.db.write_txn(lambda conn: conn.execute(
            "INSERT INTO entries (kind, fingerprint, schema, body,"
            " created_at) VALUES ('verdicts', 'v1', ?, x'00', 0.0)",
            (SCHEMA_VERSION,),
        ))
        entries = store.stats().entries
        assert entries == {"results": 2, "traces": 1, "hitmasks": 1}
        assert store.verify().checked == entries


# -- properties of the row format ----------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
large_ints = st.integers(min_value=-(2 ** 80), max_value=2 ** 80)


@st.composite
def run_results(draw):
    """Arbitrary finite run results (negative zero and subnormals too)."""
    return RunResult(
        workload=draw(st.text(max_size=12)),
        engine=draw(st.text(max_size=12)),
        n_requests=draw(large_ints),
        n_reads=draw(large_ints),
        n_writes=draw(large_ints),
        runtime_ns=draw(finite),
        avg_read_ns=draw(finite),
        avg_write_ns=draw(finite),
        latency_percentiles_ns=draw(st.dictionaries(
            st.floats(min_value=0.0, max_value=100.0), finite, max_size=6,
        )),
        repeats=draw(large_ints),
        runtime_std_ns=draw(finite),
        concurrency=draw(large_ints),
    )


@pytest.fixture(scope="class")
def shared_store(tmp_path_factory):
    """One store for every example of a property."""
    opened = SQLiteStore(tmp_path_factory.mktemp("prop") / "mnemo.db")
    yield opened
    opened.close()


class TestRowProperties:
    @given(result=run_results())
    @settings(max_examples=150, deadline=None)
    def test_a_stored_result_is_recalled_equal(self, shared_store, result):
        shared_store.put_result("r", result)
        assert shared_store.get_result("r") == result

    @given(result=run_results())
    @settings(max_examples=100, deadline=None)
    def test_equal_results_store_equal_bytes(self, shared_store, result):
        # the same fields with the percentiles inserted in another order
        twin = dataclasses.replace(result, latency_percentiles_ns=dict(
            reversed(list(result.latency_percentiles_ns.items())),
        ))
        shared_store.put_result("a", result)
        shared_store.put_result("b", twin)
        assert stored(shared_store, "results", "a") == stored(
            shared_store, "results", "b",
        )

    @given(
        kind=st.sampled_from(KINDS),
        where=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        flip=st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=200, deadline=None)
    def test_a_flipped_byte_or_a_truncation_is_a_quarantined_miss(
        self, shared_store, kind, where, flip,
    ):
        # flip == 0 truncates the body before byte `where`, else XORs it
        shared_store.clear()
        put(shared_store, kind, "x", VALUES[kind])
        body = stored(shared_store, kind, "x")
        pos = int(where * len(body))
        if flip:
            body = body[:pos] + bytes([body[pos] ^ flip]) + body[pos + 1:]
        else:
            body = body[:pos]
        overwrite(shared_store, kind, "x", body)
        assert get(shared_store, kind, "x") is None
        stats = shared_store.stats()
        assert stats.entries[kind] == 0 and stats.quarantined[kind] == 1


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


class TestLegacyVerdictRows:
    """Older builds also stored guard verdicts; their rows still open."""

    def test_verdict_row_is_not_counted_and_is_cleared(
        self, tmp_path, result, capsys,
    ):
        from repro.cli import main

        path = tmp_path / "legacy.db"
        store = SQLiteStore(path)
        store.put_result("r", result)
        body = json.dumps({
            "schema": SCHEMA_VERSION, "checksum": "0" * 64,
            "verdict": {"status": "pass", "fingerprint": "f" * 16},
        }).encode()
        store.db.write_txn(lambda conn: conn.execute(
            "INSERT INTO entries (kind, fingerprint, schema, body,"
            " created_at) VALUES ('verdicts', 'v1', ?, ?, 0.0)",
            (SCHEMA_VERSION, body),
        ))
        store.close()

        store = SQLiteStore(path)
        try:
            stats = store.stats()
            assert "verdicts" not in stats.entries
            assert stats.total_entries == 1 and stats.total_quarantined == 0
            report = store.verify()
            assert report.ok and report.total_checked == 1
            assert "verdicts" not in report.checked
            assert main(["cache", "stats", "--dir", str(path)]) == 0
            out = capsys.readouterr().out
            assert "verdicts" not in out
            assert "total" in out and " 1 entries" in out
            assert store.clear() == 2
            assert store.db.read("SELECT COUNT(*) FROM entries")[0][0] == 0
        finally:
            store.close()


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
        store.put_result("v", result)
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
