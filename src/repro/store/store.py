"""The result store: content-addressed entries in one SQLite file.

:class:`SQLiteStore` memoizes what the pipeline measures — run results
and LLC hit masks — as ``(kind, fingerprint) -> body`` rows with an
upsert.  A guard verdict is not stored: it is judged afresh from the
replayed splits' ``results`` rows, so re-validation recalls those
instead of measuring them (``verdicts`` rows older builds wrote are
neither counted nor verified, and ``clear()`` drops them).  The
``traces`` kind is still read and written by
:meth:`~SQLiteStore.get_trace` / :meth:`~SQLiteStore.put_trace`, but
nothing in the pipeline calls them any more (regenerating a trace costs
less than encoding it).  Fingerprints come from
:mod:`repro.runner.fingerprint` and cover everything that determines an
entry's content, so an entry is valid forever; invalidation reduces to
three rules: every read filters on the row's ``schema`` column, so
bumping ``SCHEMA_VERSION`` orphans every old row of every kind (it
reads as a miss and is never verified or quarantined), a changed input
changes the fingerprint so the stale row is never looked up again, and
``clear()`` drops everything explicitly.

A body is ``sha256(payload) ‖ payload``: 32 raw digest bytes, then the
kind's payload from :data:`repro.runner.cache.CODECS`.  A read whose
digest does not match the bytes after it (bit rot, a truncated or
mangled copy), or whose payload does not decode, is *quarantined* —
moved to the ``quarantine`` table with its reason and body intact — and
reported as a miss, so the caller transparently recomputes it.
``verify()`` runs the same check over every entry up front
(``python -m repro cache verify``) and ``stats()`` counts what
quarantine holds.

- every write is one WAL-mode ``BEGIN IMMEDIATE`` transaction, or one
  statement SQLite commits on its own (an oplog append;
  :mod:`repro.store.db`), so a SIGKILL mid-write can never leave a
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
"""

from __future__ import annotations

import hashlib
import time
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.runner.cache import (
    CODECS,
    SCHEMA_VERSION,
    CacheStats,
    CacheVerifyReport,
)
from repro.store.db import Database
from repro.store.oplog import Oplog
from repro.ycsb.client import RunResult
from repro.ycsb.workload import Trace

#: Default store filename (relative to the working directory).
DEFAULT_STORE_PATH = "mnemo.db"

#: Length of the SHA-256 digest that opens every entry body.
_DIGEST_BYTES = 32

#: Fingerprints one ``SELECT … IN`` reads, under SQLite's oldest limit
#: on bound parameters (999).
_IN_CHUNK = 900

#: Schema DDL, one statement per element so creation can run inside a
#: single retried write transaction (``executescript`` would implicitly
#: commit and escape it).
_SCHEMA_STATEMENTS = (
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

    def _rows(self, kind: str, fingerprints) -> dict:
        """The current rows of *fingerprints* under *kind*, by
        fingerprint: one ``SELECT … IN`` per :data:`_IN_CHUNK` of them."""
        fps = list(dict.fromkeys(fingerprints))
        rows = {}
        for at in range(0, len(fps), _IN_CHUNK):
            chunk = fps[at:at + _IN_CHUNK]
            rows.update((row["fingerprint"], row) for row in self.db.read(
                "SELECT fingerprint, body FROM entries WHERE kind = ?"
                " AND schema = ? AND fingerprint IN"
                f" ({', '.join('?' * len(chunk))})",
                (kind, SCHEMA_VERSION, *chunk),
            ))
        return rows

    def _put(self, kind: str, items) -> Path:
        """Upsert every ``(fingerprint, value)`` of *items* in one
        transaction."""
        now = time.time()
        rows = []
        for fingerprint, value in items:
            payload = CODECS[kind][0](value)
            rows.append((
                kind, fingerprint, SCHEMA_VERSION,
                hashlib.sha256(payload).digest() + payload, now,
            ))
        telemetry.count("cache.write", len(rows), kind=kind)

        def txn(conn):
            conn.executemany(
                "INSERT INTO entries (kind, fingerprint, schema, body,"
                " created_at) VALUES (?, ?, ?, ?, ?)"
                " ON CONFLICT (kind, fingerprint) DO UPDATE SET"
                " schema = excluded.schema, body = excluded.body,"
                " created_at = excluded.created_at",
                rows,
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
    def _open(kind: str, body: bytes):
        """Check a body's digest and decode its payload.

        Returns ``(value, None)``, or ``(None, reason)`` for a body
        that is corrupt.
        """
        digest, payload = body[:_DIGEST_BYTES], body[_DIGEST_BYTES:]
        if hashlib.sha256(payload).digest() != digest:
            return None, "digest mismatch"
        try:
            return CODECS[kind][1](payload), None
        except Exception as exc:
            # the bytes are what was written, but this build's codec
            # cannot read them (whatever the JSON, zip or .npy parser
            # trips over): corrupt too, a miss and never an error
            return None, f"undecodable payload ({type(exc).__name__})"

    def _get(self, kind: str, fingerprints) -> dict:
        """The value of each of *fingerprints* stored under *kind*, by
        fingerprint, from one read; a missing one is absent, and so is a
        corrupt one, which is quarantined (the caller recomputes it)."""
        rows = self._rows(kind, fingerprints)
        found = {}
        for fingerprint, row in rows.items():
            value, reason = self._open(kind, row["body"])
            if reason is None:
                found[fingerprint] = value
                continue
            telemetry.event(
                "cache.corrupt", kind=kind, entry=fingerprint, reason=reason,
            )
            self._quarantine_row(kind, fingerprint, reason)
        probes = len(set(fingerprints))
        for outcome, n in (("hit", len(found)), ("miss", probes - len(found))):
            if n:
                telemetry.count("cache.lookup", n, kind=kind, outcome=outcome)
        return found

    # -- the cache interface --------------------------------------------------

    def get_result(self, fingerprint: str) -> RunResult | None:
        """Load a cached run result (or None); quarantines corruption."""
        return self.get_results([fingerprint]).get(fingerprint)

    def get_results(self, fingerprints) -> dict[str, RunResult]:
        """The cached run results of *fingerprints* that are stored, by
        fingerprint, from one read; quarantines corruption."""
        return self._get("results", fingerprints)

    def put_result(self, fingerprint: str, result: RunResult) -> Path:
        """Persist a run result in one transaction; returns the db path."""
        return self.put_results([(fingerprint, result)])

    def put_results(self, items) -> Path:
        """Persist every ``(fingerprint, result)`` of *items* in one
        transaction; returns the db path."""
        return self._put("results", items)

    def get_trace(self, fingerprint: str) -> Trace | None:
        """Load a cached generated trace (or None); quarantines corruption."""
        return self._get("traces", [fingerprint]).get(fingerprint)

    def put_trace(self, fingerprint: str, trace: Trace) -> Path:
        """Persist a generated trace; returns the db path."""
        return self._put("traces", [(fingerprint, trace)])

    def get_hitmask(self, fingerprint: str) -> np.ndarray | None:
        """Load a cached LLC hit mask (or None); quarantines corruption."""
        return self._get("hitmasks", [fingerprint]).get(fingerprint)

    def put_hitmask(self, fingerprint: str, mask: np.ndarray) -> Path:
        """Persist an LLC hit mask; returns the db path."""
        return self._put("hitmasks", [(fingerprint, mask)])

    # -- census and maintenance -----------------------------------------------

    def fingerprints(self, kind: str) -> list[str]:
        """Every current fingerprint of *kind*, sorted (SQL census helper)."""
        rows = self.db.read(
            "SELECT fingerprint FROM entries WHERE kind = ? AND schema = ?"
            " ORDER BY fingerprint", (kind, SCHEMA_VERSION),
        )
        return [row["fingerprint"] for row in rows]

    def stats(self) -> CacheStats:
        """Entry counts, byte totals and quarantine census (current schema)."""
        entries = {kind: 0 for kind in CODECS}
        bytes_ = {kind: 0 for kind in CODECS}
        quarantined = {kind: 0 for kind in CODECS}
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
        """Walk every current entry and check its digest and payload.

        With ``repair=True`` (default) corrupt rows move to the
        quarantine table so subsequent runs recompute them; with
        ``repair=False`` the walk only reports.
        """
        checked = {kind: 0 for kind in CODECS}
        corrupt: dict[str, tuple[str, ...]] = {}
        for kind in CODECS:
            bad = []
            rows = self.db.read(
                "SELECT fingerprint, body FROM entries WHERE kind = ?"
                " AND schema = ? ORDER BY fingerprint", (kind, SCHEMA_VERSION),
            )
            checked[kind] = len(rows)
            for row in rows:
                _, reason = self._open(kind, row["body"])
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
