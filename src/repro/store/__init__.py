"""Durable experiment store: SQLite result store, oplog, sweep journal.

The pipeline's durability layer (``docs/STORE.md``):

- :mod:`repro.store.db` — WAL-mode connections, single-writer
  transactions, busy-timeout + bounded-backoff lock retry;
- :mod:`repro.store.store` — :class:`SQLiteStore`, the one result
  store (results, traces, hit masks, verdicts, quarantine — one
  queryable file, torn-write-proof by transaction);
- :mod:`repro.store.oplog` — the append-only event log sweeps and the
  guard service journal into;
- :mod:`repro.store.journal` — per-experiment sweep checkpoints that
  make ``mnemo sweep --resume RUN_ID`` skip finished work after a
  coordinator kill.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "db": ["DEFAULT_BUSY_TIMEOUT_MS", "Database"],
    "journal": ["SweepJournal"],
    "oplog": [
        "KIND_CONFIG_RELOADED", "KIND_REQUEST_SERVED",
        "KIND_TOKEN_REGISTERED", "KIND_TOKEN_REVOKED",
        "SERVICE_REQUEST_KINDS", "Oplog", "OplogEntry",
    ],
    "store": ["DEFAULT_STORE_PATH", "SQLiteStore"],
})
