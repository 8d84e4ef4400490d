"""SQLite connection plumbing: WAL mode, busy timeout, bounded retry.

One :class:`Database` wraps one SQLite file and hands out connections
that are safe for this codebase's process model:

- **WAL journal mode** so readers never block the single writer and a
  SIGKILL mid-transaction leaves a consistent database (the WAL is
  rolled back or checkpointed on the next open, never half-applied);
- **per-(pid, thread) connections** — pool workers fork from the
  coordinator, and a forked child must never reuse the parent's
  connection object, so :meth:`connection` reopens lazily whenever the
  pid or thread changes.  A connection lives exactly as long as its
  thread, so a thread that writes should outlive one write: in the
  daemon the writers are the run loop, the request-plane workers and
  the control socket's I/O threads, all of which live across requests
  (``docs/STORE.md``);
- **``busy_timeout``** makes SQLite itself wait out short lock
  contention, and :meth:`Database.write_txn` adds a bounded exponential-backoff
  retry loop (deterministic jitter, :func:`~repro.rng.backoff_delay`)
  around ``BEGIN IMMEDIATE`` transactions for the pathological cases —
  two sweeps hammering one store on a slow volume — before giving up
  with a :class:`~repro.errors.StoreError`;
- **no raw ``sqlite3`` exception leaves this module** once a connection
  is open: a statement that trips over a rotted page (``database disk
  image is malformed``) raises :class:`~repro.errors.StoreError` naming
  the file, from :meth:`Database.write_txn` and :meth:`Database.read`
  alike.

Writes always run inside a single ``BEGIN IMMEDIATE`` transaction:
SQLite serialises writers, so every row is either fully present or
absent — the property the crash drills in ``tests/store`` assert.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import time
from pathlib import Path

from repro import telemetry
from repro.errors import ConfigurationError, StoreError
from repro.rng import backoff_delay

#: Default SQLite busy timeout (milliseconds) before a lock attempt
#: surfaces as ``OperationalError: database is locked``.
DEFAULT_BUSY_TIMEOUT_MS = 5_000

#: ``OperationalError`` messages that mean transient lock contention.
_LOCKED_MARKERS = ("database is locked", "database is busy")

#: Primary result codes that mean the file itself is bad, not the
#: statement: SQLITE_IOERR, SQLITE_CORRUPT, SQLITE_NOTADB.
_DAMAGE_CODES = frozenset({10, 11, 26})


def _is_locked(exc: sqlite3.Error) -> bool:
    msg = str(exc).lower()
    return any(marker in msg for marker in _LOCKED_MARKERS)


class Database:
    """One SQLite file with WAL durability and contention-tolerant writes.

    Parameters
    ----------
    path:
        Database file (parent directories are created on demand).
    busy_timeout_ms:
        How long SQLite itself waits on a locked database before
        raising; the retry loop below sits on top of this.
    max_attempts:
        Write-transaction attempts before a lock surfaces as a
        :class:`~repro.errors.StoreError` (1 = no retries).
    backoff_base_s / backoff_factor:
        Exponential backoff between attempts, jittered
        deterministically from (path, attempt).
    """

    def __init__(
        self,
        path: str | Path,
        busy_timeout_ms: int = DEFAULT_BUSY_TIMEOUT_MS,
        max_attempts: int = 6,
        backoff_base_s: float = 0.01,
        backoff_factor: float = 2.0,
    ):
        self.path = Path(path)
        self.busy_timeout_ms = int(busy_timeout_ms)
        self.max_attempts = max(1, int(max_attempts))
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_factor = float(backoff_factor)
        self._local = threading.local()
        if self.path.is_dir():
            raise ConfigurationError(
                f"cannot open store {self.path}: it is a directory, not a "
                "SQLite file (a left-over v2 file-tree cache? those are no "
                "longer read; remove it or name another path and the "
                "entries are recomputed)"
            )
        if not self.path.parent.is_dir():
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigurationError(
                    f"cannot open store {self.path}: {exc}"
                ) from exc

    # -- connections ----------------------------------------------------------

    def _open(self) -> sqlite3.Connection:
        try:
            conn = sqlite3.connect(
                self.path,
                timeout=self.busy_timeout_ms / 1000.0,
                isolation_level=None,  # explicit BEGIN/COMMIT only
            )
        except sqlite3.Error as exc:
            raise StoreError(f"cannot open store {self.path}: {exc}") from exc
        conn.row_factory = sqlite3.Row
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(f"PRAGMA busy_timeout={self.busy_timeout_ms}")
            conn.execute("PRAGMA foreign_keys=ON")
        except sqlite3.DatabaseError as exc:
            conn.close()
            if _is_locked(exc):
                raise
            # the first statement to read the file: it is not a database
            raise ConfigurationError(
                f"cannot open store {self.path}: {exc}"
            ) from exc
        return conn

    def connection(self) -> sqlite3.Connection:
        """This (pid, thread)'s connection, (re)opened as needed.

        A connection created before a ``fork`` must not be used in the
        child — SQLite file locks and the connection's internal state
        are per-process — so the memo is keyed on the current pid.  It
        is closed when its thread ends (or by :meth:`close`).
        """
        pid = os.getpid()
        conn = getattr(self._local, "conn", None)
        if conn is None or getattr(self._local, "pid", None) != pid:
            self._local.conn = self._open()
            self._local.pid = pid
        return self._local.conn

    def close(self) -> None:
        """Close this (pid, thread)'s connection, if one is open."""
        conn = getattr(self._local, "conn", None)
        self._local.conn = None
        if conn is not None and getattr(self._local, "pid", None) == os.getpid():
            try:
                conn.close()
            except sqlite3.Error:  # pragma: no cover - close is best-effort
                pass

    # -- transactions ---------------------------------------------------------

    def _backoff_s(self, attempt: int) -> float:
        return backoff_delay(
            f"{self.path}/lock/{attempt}", attempt,
            self.backoff_base_s, self.backoff_factor,
        )

    def _rollback(self, conn: sqlite3.Connection) -> None:
        try:
            conn.execute("ROLLBACK")
        except sqlite3.Error:  # no txn open, or the file is past saving
            pass

    def _failed(self, exc: sqlite3.Error) -> StoreError:
        """The structured form of a statement failure that is not a lock."""
        msg = f"store {self.path} failed a statement: {exc}"
        if getattr(exc, "sqlite_errorcode", 0) & 0xFF in _DAMAGE_CODES:
            msg += (
                " (entries are recomputable, so a damaged store can be "
                "deleted)"
            )
        return StoreError(msg)

    def write_txn(self, fn):
        """Run ``fn(conn)`` in a single-writer transaction, retrying locks.

        ``BEGIN IMMEDIATE`` takes the write lock up front, so the whole
        body either commits atomically or rolls back; lock contention
        that outlasts ``busy_timeout`` is retried with exponential
        backoff up to ``max_attempts`` times, then raised as
        :class:`~repro.errors.StoreError` — as is, at once, any other
        database error.  Returns ``fn``'s result.
        """
        conn = self.connection()
        last: sqlite3.DatabaseError | None = None
        for attempt in range(1, self.max_attempts + 1):
            if attempt > 1:
                telemetry.count("store.lock_retry")
                time.sleep(self._backoff_s(attempt - 1))
            try:
                conn.execute("BEGIN IMMEDIATE")
            except sqlite3.DatabaseError as exc:
                if not _is_locked(exc):
                    raise self._failed(exc) from exc
                last = exc
                continue
            try:
                out = fn(conn)
                conn.execute("COMMIT")
                return out
            except sqlite3.DatabaseError as exc:
                self._rollback(conn)
                if not _is_locked(exc):
                    raise self._failed(exc) from exc
                last = exc
            except BaseException:
                self._rollback(conn)
                raise
        raise StoreError(
            f"store {self.path} stayed locked through "
            f"{self.max_attempts} attempts: {last}"
        )

    def read(self, sql: str, params=()) -> list[sqlite3.Row]:
        """Every row of one plain read (WAL readers never block).

        Fetched inside the call, so a rotted page met while stepping
        through the result is a :class:`~repro.errors.StoreError` too.
        """
        try:
            return self.connection().execute(sql, params).fetchall()
        except sqlite3.DatabaseError as exc:
            raise self._failed(exc) from exc

    def integrity_check(self) -> str:
        """Run ``PRAGMA integrity_check``; ``ok`` or SQLite's findings."""
        rows = self.read("PRAGMA integrity_check(5)")
        return "; ".join(str(row[0]) for row in rows) or "missing"
