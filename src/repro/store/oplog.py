"""Append-only operation log of sweep and guard events.

The oplog is the store's journal plane: one monotonically-sequenced
table of ``(run_id, kind, at, payload)`` rows that is only ever
appended to.  Three consumers ride on it:

- **resumable sweeps** — :class:`~repro.store.journal.SweepJournal`
  checkpoints each completed experiment as an ``experiment_done``
  entry, so ``mnemo sweep --resume RUN_ID`` can skip finished work
  after a coordinator kill;
- **the guard service** — every ``mnemo serve`` tick appends a
  ``guard_tick`` entry, turning the always-on advisor's history into a
  SQL-queryable audit trail;
- **operators** — ``SELECT kind, COUNT(*) FROM oplog GROUP BY kind``
  style censuses over run history, with no log files to scrape.

An append is one ``INSERT``, committed by SQLite on its own before it
returns (no ``BEGIN`` / ``COMMIT`` round trips), under the store's
lock retry, so an entry is either fully durable or absent — the crash
drills in ``tests/store/test_crash.py`` SIGKILL writers mid-append and
assert exactly that.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

#: Oplog kinds the served-advisor request plane appends (docs/SERVE.md):
#: token registration/revocation events carry a ``token_sha256`` digest
#: (never the raw token), and one ``request_served`` entry summarises
#: each completed advice request (op, status, duration).
KIND_TOKEN_REGISTERED = "auth_token_registered"
KIND_TOKEN_REVOKED = "auth_token_revoked"
KIND_REQUEST_SERVED = "request_served"
KIND_CONFIG_RELOADED = "config_reloaded"

#: Every request-plane kind, for censuses and tests.
SERVICE_REQUEST_KINDS = (
    KIND_TOKEN_REGISTERED,
    KIND_TOKEN_REVOKED,
    KIND_REQUEST_SERVED,
    KIND_CONFIG_RELOADED,
)


_APPEND = "INSERT INTO oplog (run_id, kind, at, payload) VALUES (?, ?, ?, ?)"


@dataclass(frozen=True)
class OplogEntry:
    """One immutable oplog row."""

    seq: int
    run_id: str
    kind: str
    at: float
    payload: dict

    def describe(self) -> str:
        """One human-readable line (the ``mnemo store log`` row format)."""
        detail = ", ".join(f"{k}={v}" for k, v in sorted(self.payload.items()))
        return f"#{self.seq} [{self.run_id}] {self.kind} {detail}".rstrip()


class Oplog:
    """Append-only event log over a store's :class:`~repro.store.db.Database`."""

    def __init__(self, db):
        self.db = db

    def append(self, run_id: str, kind: str, **payload) -> int:
        """Durably append one entry; returns its sequence number.

        The payload must be JSON-serialisable; the append is one
        statement, committed before this returns (atomic under SIGKILL).
        """
        row = (run_id, kind, time.time(), json.dumps(payload, sort_keys=True))
        return self.db.write_txn(
            lambda conn: conn.execute(_APPEND, row).lastrowid, atomic=False,
        )

    def entries(
        self, run_id: str | None = None, kind: str | None = None,
    ) -> list[OplogEntry]:
        """Entries in append order, optionally filtered by run and kind."""
        clauses, params = [], []
        if run_id is not None:
            clauses.append("run_id = ?")
            params.append(run_id)
        if kind is not None:
            clauses.append("kind = ?")
            params.append(kind)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        rows = self.db.read(
            f"SELECT seq, run_id, kind, at, payload FROM oplog{where}"
            " ORDER BY seq", params,
        )
        out = []
        for row in rows:
            try:
                payload = json.loads(row["payload"])
            except json.JSONDecodeError:  # pragma: no cover - append is atomic
                payload = {"_raw": row["payload"]}
            out.append(OplogEntry(
                seq=row["seq"], run_id=row["run_id"], kind=row["kind"],
                at=row["at"], payload=payload,
            ))
        return out

    def runs(self) -> list[tuple[str, int]]:
        """Distinct run ids with entry counts, most recent first."""
        rows = self.db.read(
            "SELECT run_id, COUNT(*) AS n, MAX(seq) AS latest FROM oplog"
            " GROUP BY run_id ORDER BY latest DESC"
        )
        return [(row["run_id"], row["n"]) for row in rows]
