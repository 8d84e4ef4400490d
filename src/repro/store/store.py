"""The result store: content-addressed entries in one SQLite file.

:class:`SQLiteStore` memoizes what the pipeline measures — run results,
LLC hit masks, guard verdicts — as ``(kind, fingerprint) -> body`` rows
with an upsert.  The ``traces`` kind is still read and written by
:meth:`~SQLiteStore.get_trace` / :meth:`~SQLiteStore.put_trace`, but
nothing in the pipeline calls them any more (regenerating a trace costs
less than encoding it); rows older builds wrote are counted, verified
and cleared like any other.  Fingerprints come from
:mod:`repro.runner.fingerprint` and cover everything that determines an
entry's content, so an entry is valid forever; invalidation reduces to
three rules: bumping ``SCHEMA_VERSION`` orphans every old row (it reads
as a miss), a changed input changes the fingerprint so the stale row is
never looked up again, and ``clear()`` drops everything explicitly.

Bodies are the checksummed envelopes of :mod:`repro.runner.cache`.  A
read that fails to parse or fails its checksum (bit rot, a mangled
copy) is *quarantined* — moved to the ``quarantine`` table with its
reason and payload intact — and reported as a miss, so the caller
transparently recomputes it.  ``verify()`` walks every entry up front
(``python -m repro cache verify``) and ``stats()`` counts what
quarantine holds.

- every write is one WAL-mode ``BEGIN IMMEDIATE`` transaction
  (:mod:`repro.store.db`), so a SIGKILL mid-write can never leave a
  torn entry — the row is either fully there or absent;
- concurrent runners on one volume contend on SQLite's write lock,
  with ``busy_timeout`` plus bounded-backoff retry absorbing the
  contention;
- entries, quarantine and the append-only oplog
  (:mod:`repro.store.oplog`) live in one file that plain SQL can
  census — provenance, cross-run comparisons, quarantine autopsies.

Schema::

    entries(kind, fingerprint, schema, body, created_at)   -- PK (kind, fingerprint)
    quarantine(kind, fingerprint, reason, body, quarantined_at)
    oplog(seq, run_id, kind, at, payload)                  -- append-only
    meta(key, value)
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.errors import StoreError
from repro.runner.cache import (
    _KINDS,
    SCHEMA_VERSION,
    CacheStats,
    CacheVerifyReport,
    decode_hitmask,
    decode_result,
    decode_trace,
    decode_verdict,
    encode_hitmask,
    encode_result,
    encode_trace,
    encode_verdict,
)
from repro.store.db import Database
from repro.store.oplog import Oplog
from repro.ycsb.client import RunResult
from repro.ycsb.workload import Trace

#: Default store filename (relative to the working directory).
DEFAULT_STORE_PATH = "mnemo.db"

#: Schema DDL, one statement per element so creation can run inside a
#: single retried write transaction (``executescript`` would implicitly
#: commit and escape it).
_SCHEMA_STATEMENTS = (
    """CREATE TABLE IF NOT EXISTS meta (
        key   TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )""",
    """CREATE TABLE IF NOT EXISTS entries (
        kind        TEXT    NOT NULL,
        fingerprint TEXT    NOT NULL,
        schema      INTEGER NOT NULL,
        body        BLOB    NOT NULL,
        created_at  REAL    NOT NULL,
        PRIMARY KEY (kind, fingerprint)
    )""",
    """CREATE TABLE IF NOT EXISTS quarantine (
        kind           TEXT NOT NULL,
        fingerprint    TEXT NOT NULL,
        reason         TEXT NOT NULL,
        body           BLOB,
        quarantined_at REAL NOT NULL,
        PRIMARY KEY (kind, fingerprint)
    )""",
    """CREATE TABLE IF NOT EXISTS oplog (
        seq     INTEGER PRIMARY KEY AUTOINCREMENT,
        run_id  TEXT NOT NULL,
        kind    TEXT NOT NULL,
        at      REAL NOT NULL,
        payload TEXT NOT NULL
    )""",
    "CREATE INDEX IF NOT EXISTS oplog_by_run ON oplog (run_id, seq)",
)


class SQLiteStore:
    """Content-addressed experiment store in one SQLite file.

    Parameters
    ----------
    path:
        Database file (created on first use; parents too).  The
        :attr:`root` attribute is this path, so payloads that carry
        ``str(cache.root)`` across process boundaries rebuild a store
        (see :func:`~repro.runner.cache.ensure_cache`).
    busy_timeout_ms / max_attempts:
        Lock-contention tolerance, forwarded to
        :class:`~repro.store.db.Database`.
    """

    def __init__(
        self,
        path: str | Path = DEFAULT_STORE_PATH,
        busy_timeout_ms: int | None = None,
        max_attempts: int | None = None,
    ):
        self.root = Path(path)
        kwargs = {}
        if busy_timeout_ms is not None:
            kwargs["busy_timeout_ms"] = busy_timeout_ms
        if max_attempts is not None:
            kwargs["max_attempts"] = max_attempts
        self.db = Database(self.root, **kwargs)

        def create(conn):
            for statement in _SCHEMA_STATEMENTS:
                conn.execute(statement)

        self.db.write_txn(create)
        self.oplog = Oplog(self.db)

    # -- plumbing -------------------------------------------------------------

    def close(self) -> None:
        """Flush and close this process's connection (idempotent)."""
        self.db.close()

    def _row(self, kind: str, fingerprint: str):
        rows = self.db.read(
            "SELECT body FROM entries WHERE kind = ? AND fingerprint = ?",
            (kind, fingerprint),
        )
        return rows[0] if rows else None

    def _put(self, kind: str, fingerprint: str, body: bytes) -> Path:
        telemetry.count("cache.write", kind=kind)
        now = time.time()

        def txn(conn):
            conn.execute(
                "INSERT INTO entries (kind, fingerprint, schema, body,"
                " created_at) VALUES (?, ?, ?, ?, ?)"
                " ON CONFLICT (kind, fingerprint) DO UPDATE SET"
                " schema = excluded.schema, body = excluded.body,"
                " created_at = excluded.created_at",
                (kind, fingerprint, SCHEMA_VERSION, body, now),
            )

        self.db.write_txn(txn)
        return self.root

    def _quarantine_row(self, kind: str, fingerprint: str, reason: str) -> None:
        telemetry.count("cache.quarantine", kind=kind)
        now = time.time()

        def txn(conn):
            row = conn.execute(
                "SELECT body FROM entries WHERE kind = ? AND fingerprint = ?",
                (kind, fingerprint),
            ).fetchone()
            body = row["body"] if row is not None else None
            conn.execute(
                "INSERT OR REPLACE INTO quarantine (kind, fingerprint,"
                " reason, body, quarantined_at) VALUES (?, ?, ?, ?, ?)",
                (kind, fingerprint, reason, body, now),
            )
            conn.execute(
                "DELETE FROM entries WHERE kind = ? AND fingerprint = ?",
                (kind, fingerprint),
            )

        self.db.write_txn(txn)

    @staticmethod
    def _lookup(kind: str, hit: bool) -> None:
        """Count one cache probe's outcome (off-path telemetry)."""
        telemetry.count(
            "cache.lookup", kind=kind, outcome="hit" if hit else "miss",
        )

    @staticmethod
    def _decode_json(data: bytes, decoder):
        try:
            payload = json.loads(data)
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None, "unparseable JSON"
        return decoder(payload)

    def _decode(self, kind: str, data: bytes):
        if kind == "results":
            return self._decode_json(data, decode_result)
        if kind == "verdicts":
            return self._decode_json(data, decode_verdict)
        if kind == "traces":
            return decode_trace(data)
        if kind == "hitmasks":
            return decode_hitmask(data)
        raise StoreError(f"unknown entry kind {kind!r}")

    def _get(self, kind: str, fingerprint: str):
        row = self._row(kind, fingerprint)
        if row is None:
            self._lookup(kind, hit=False)
            return None
        value, reason = self._decode(kind, row["body"])
        if reason is not None:
            # corrupt: set aside and report a miss, the caller recomputes
            self._lookup(kind, hit=False)
            telemetry.event(
                "cache.corrupt", kind=kind, entry=fingerprint, reason=reason,
            )
            self._quarantine_row(kind, fingerprint, reason)
            return None
        self._lookup(kind, hit=value is not None)
        return value

    # -- the cache interface --------------------------------------------------

    def get_result(self, fingerprint: str) -> RunResult | None:
        """Load a cached run result (or None); quarantines corruption."""
        return self._get("results", fingerprint)

    def put_result(self, fingerprint: str, result: RunResult) -> Path:
        """Persist a run result in one transaction; returns the db path."""
        payload = encode_result(result)
        return self._put(
            "results", fingerprint, json.dumps(payload, indent=1).encode()
        )

    def get_trace(self, fingerprint: str) -> Trace | None:
        """Load a cached generated trace (or None); quarantines corruption."""
        return self._get("traces", fingerprint)

    def put_trace(self, fingerprint: str, trace: Trace) -> Path:
        """Persist a generated trace; returns the db path."""
        return self._put("traces", fingerprint, encode_trace(trace))

    def get_hitmask(self, fingerprint: str) -> np.ndarray | None:
        """Load a cached LLC hit mask (or None); quarantines corruption."""
        return self._get("hitmasks", fingerprint)

    def put_hitmask(self, fingerprint: str, mask: np.ndarray) -> Path:
        """Persist an LLC hit mask; returns the db path."""
        return self._put("hitmasks", fingerprint, encode_hitmask(mask))

    def get_verdict(self, fingerprint: str) -> dict | None:
        """Load a cached guard-verdict payload (or None)."""
        return self._get("verdicts", fingerprint)

    def put_verdict(self, fingerprint: str, payload: dict) -> Path:
        """Persist a guard-verdict payload; returns the db path."""
        envelope = encode_verdict(payload)
        return self._put(
            "verdicts", fingerprint, json.dumps(envelope, indent=1).encode()
        )

    # -- census and maintenance -----------------------------------------------

    def fingerprints(self, kind: str) -> list[str]:
        """Every stored fingerprint of *kind*, sorted (SQL census helper)."""
        rows = self.db.read(
            "SELECT fingerprint FROM entries WHERE kind = ?"
            " ORDER BY fingerprint", (kind,),
        )
        return [row["fingerprint"] for row in rows]

    def stats(self) -> CacheStats:
        """Entry counts, byte totals and quarantine census (current schema)."""
        entries = {kind: 0 for kind in _KINDS}
        bytes_ = {kind: 0 for kind in _KINDS}
        quarantined = {kind: 0 for kind in _KINDS}
        for row in self.db.read(
            "SELECT kind, COUNT(*) AS n, COALESCE(SUM(LENGTH(body)), 0)"
            " AS total FROM entries WHERE schema = ? GROUP BY kind",
            (SCHEMA_VERSION,),
        ):
            if row["kind"] in entries:
                entries[row["kind"]] = row["n"]
                bytes_[row["kind"]] = row["total"]
        for row in self.db.read(
            "SELECT kind, COUNT(*) AS n FROM quarantine GROUP BY kind"
        ):
            if row["kind"] in quarantined:
                quarantined[row["kind"]] = row["n"]
        return CacheStats(entries, bytes_, quarantined)

    def verify(self, repair: bool = True) -> CacheVerifyReport:
        """Walk every entry and validate its checksum.

        With ``repair=True`` (default) corrupt rows move to the
        quarantine table so subsequent runs recompute them; with
        ``repair=False`` the walk only reports.
        """
        checked = {kind: 0 for kind in _KINDS}
        corrupt: dict[str, tuple[str, ...]] = {}
        for kind in _KINDS:
            bad = []
            rows = self.db.read(
                "SELECT fingerprint, body FROM entries WHERE kind = ?"
                " ORDER BY fingerprint", (kind,),
            )
            checked[kind] = len(rows)
            for row in rows:
                _, reason = self._decode(kind, row["body"])
                if reason is not None:
                    bad.append(row["fingerprint"])
                    if repair:
                        self._quarantine_row(kind, row["fingerprint"], reason)
            corrupt[kind] = tuple(bad)
        return CacheVerifyReport(checked=checked, corrupt=corrupt)

    def clear(self) -> int:
        """Delete every cached entry (the oplog is history and stays).

        Returns the number of entries removed.
        """
        def txn(conn):
            n = conn.execute("SELECT COUNT(*) AS n FROM entries").fetchone()["n"]
            conn.execute("DELETE FROM entries")
            conn.execute("DELETE FROM quarantine")
            return n

        return self.db.write_txn(txn)

    def integrity_check(self) -> str:
        """SQLite's own structural verdict (``ok`` when sound)."""
        return self.db.integrity_check()
