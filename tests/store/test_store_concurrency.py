"""Two-process concurrent-writer stress test for the SQLite store.

SQLite serialises writers; the store's job is to make that invisible —
``busy_timeout`` plus the bounded-backoff retry in
:meth:`~repro.store.db.Database.write_txn` must absorb lock contention
so that two processes hammering one store lose no rows and duplicate
none.
"""

import multiprocessing as mp
import sqlite3
import threading

import pytest

from repro import telemetry
from repro.errors import ConfigurationError, StoreError
from repro.store import SQLiteStore
from repro.store.db import Database
from repro.ycsb.client import RunResult

N_PER_WRITER = 40


def _result(worker, i):
    """A run result that names the write it came from."""
    return RunResult(
        workload=f"w{worker}", engine="redis", n_requests=i + 1,
        n_reads=i + 1, n_writes=0, runtime_ns=1e6, avg_read_ns=1.0,
        avg_write_ns=0.0,
    )


def _writer(path, worker, n):
    """Child-process target: write *n* results + oplog entries."""
    store = SQLiteStore(path, busy_timeout_ms=2_000)
    try:
        for i in range(n):
            store.put_result(f"w{worker}-{i:03d}", _result(worker, i))
            store.oplog.append(f"run-w{worker}", "tick", worker=worker, i=i)
    finally:
        store.close()


class TestConcurrentWriters:
    def test_two_process_stress_no_lost_or_duplicate_rows(self, tmp_path):
        path = tmp_path / "shared.db"
        SQLiteStore(path).close()  # create the schema up front
        ctx = mp.get_context("fork")
        procs = [
            ctx.Process(target=_writer, args=(path, w, N_PER_WRITER))
            for w in range(2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        store = SQLiteStore(path)
        try:
            fps = store.fingerprints("results")
            expected = sorted(
                f"w{w}-{i:03d}"
                for w in range(2) for i in range(N_PER_WRITER)
            )
            assert fps == expected  # nothing lost, nothing duplicated
            for w in range(2):
                entries = store.oplog.entries(f"run-w{w}")
                assert [e.payload["i"] for e in entries] == list(
                    range(N_PER_WRITER)
                )
            assert store.integrity_check() == "ok"
        finally:
            store.close()

    def test_same_fingerprint_from_both_writers_last_write_wins(
        self, tmp_path,
    ):
        path = tmp_path / "clash.db"
        SQLiteStore(path).close()
        ctx = mp.get_context("fork")
        procs = [ctx.Process(target=_clash_writer, args=(path, w))
                 for w in range(2)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        store = SQLiteStore(path)
        try:
            # exactly one row survives, and it is one of the writes
            assert store.fingerprints("results") == ["shared"]
            got = store.get_result("shared")
            assert got.workload in ("w0", "w1") and got.n_requests == 20
        finally:
            store.close()


def _clash_writer(path, worker):
    st = SQLiteStore(path, busy_timeout_ms=2_000)
    try:
        for i in range(20):
            st.put_result("shared", _result(worker, i))
    finally:
        st.close()


class TestLockRetry:
    def test_held_lock_is_retried_then_succeeds(self, tmp_path):
        """A writer blocked by a long transaction waits it out."""
        path = tmp_path / "locked.db"
        store = SQLiteStore(path, busy_timeout_ms=50)
        store.put_result("seed", _result(0, 0))
        blocker = sqlite3.connect(
            path, isolation_level=None, check_same_thread=False,
        )
        blocker.execute("BEGIN IMMEDIATE")
        release = threading.Timer(0.3, lambda: blocker.execute("COMMIT"))
        release.start()
        try:
            store.put_result("after", _result(0, 1))  # retries until released
            assert store.get_result("after") == _result(0, 1)
        finally:
            release.cancel()
            blocker.close()
            store.close()

    def test_exhausted_retries_raise_store_error(self, tmp_path):
        path = tmp_path / "stuck.db"
        store = SQLiteStore(
            path, busy_timeout_ms=10, max_attempts=2,
        )
        store.db.backoff_base_s = 0.01
        store.put_result("seed", _result(0, 0))
        blocker = sqlite3.connect(path, isolation_level=None)
        blocker.execute("BEGIN IMMEDIATE")
        try:
            with pytest.raises(StoreError, match="stayed locked"):
                store.put_result("never", _result(0, 1))
        finally:
            blocker.execute("ROLLBACK")
            blocker.close()
            store.close()

    def test_held_lock_is_retried_by_an_oplog_append(self, tmp_path):
        """An append is one autocommitted INSERT, not a ``BEGIN IMMEDIATE``
        transaction, and still waits a long transaction out: through
        the same retry loop once ``busy_timeout`` runs out."""
        path = tmp_path / "locked-oplog.db"
        store = SQLiteStore(path, busy_timeout_ms=50)
        store.oplog.append("run", "seed")
        blocker = sqlite3.connect(
            path, isolation_level=None, check_same_thread=False,
        )
        blocker.execute("BEGIN IMMEDIATE")
        release = threading.Timer(0.3, lambda: blocker.execute("COMMIT"))
        release.start()
        try:
            with telemetry.session() as tel:
                seq = store.oplog.append("run", "after", i=1)
            assert tel.metrics.counter("store.lock_retry").value >= 1
            last = store.oplog.entries("run")[-1]
            assert (last.seq, last.kind, last.payload) == (
                seq, "after", {"i": 1},
            )
        finally:
            release.cancel()
            blocker.close()
            store.close()

    def test_exhausted_retries_fail_an_oplog_append(self, tmp_path):
        path = tmp_path / "stuck-oplog.db"
        store = SQLiteStore(path, busy_timeout_ms=10, max_attempts=2)
        store.db.backoff_base_s = 0.01
        store.oplog.append("run", "seed")
        blocker = sqlite3.connect(path, isolation_level=None)
        blocker.execute("BEGIN IMMEDIATE")
        try:
            with pytest.raises(StoreError, match="stayed locked"):
                store.oplog.append("run", "never")
        finally:
            blocker.execute("ROLLBACK")
            blocker.close()
        try:
            assert [e.kind for e in store.oplog.entries("run")] == ["seed"]
        finally:
            store.close()

    def test_fork_reopens_connection(self, tmp_path):
        """A forked child must not reuse the parent's connection."""
        path = tmp_path / "forked.db"
        store = SQLiteStore(path)
        store.put_result("parent", _result(0, 0))  # opens parent connection
        ctx = mp.get_context("fork")
        p = ctx.Process(target=_fork_child, args=(store,))
        p.start()
        p.join(timeout=30)
        try:
            assert p.exitcode == 0
            assert store.get_result("child") == _result(0, 1)
        finally:
            store.close()

    def test_database_rejects_unopenable_path(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("plain file")
        with pytest.raises(ConfigurationError, match="cannot open"):
            Database(target / "x.db")


def _fork_child(store):
    store.put_result("child", _result(0, 1))
    store.close()
