"""Chaos harness: deterministic worker kills and cache corruption.

The fault models in :mod:`repro.faults.models` perturb *measured
numbers*; this module perturbs the *pipeline itself*, so the resilient
runner's retry / quarantine machinery can be exercised under test:

- :class:`ChaosPlan` strikes (kills or fails) workers on chosen
  experiment labels, a bounded number of times per label, using atomic
  marker files so the count is race-free across processes; retried
  experiments therefore eventually succeed and — because all results
  are content-addressed — converge to numbers bit-identical to a clean
  run.
- :func:`corrupt_store_rows` flips bytes in (or truncates) stored
  entry bodies so the checksum walk in
  :class:`~repro.store.SQLiteStore` can be shown to quarantine and
  recompute them.
- :func:`slowloris_probe` and :func:`request_flood` attack the served
  advisor's control socket — a client that stalls mid-request-line and
  a burst that overruns the admission queue — so the request plane's
  read timeout and load shedding can be drilled
  (``tests/service/test_chaos_requests.py``, ``make serve-drill``).

All are used by the chaos tests under ``tests/faults/`` +
``tests/service/`` and the ``make chaos`` / ``make serve-drill`` CI
smoke jobs.  They are test instruments, but live in the library so
operators can stage game-days against real sweeps and daemons.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigurationError, FaultError

#: Strike behaviours a :class:`ChaosPlan` supports.
CHAOS_MODES = ("exit", "raise", "hang", "sigkill")


@dataclass(frozen=True)
class ChaosPlan:
    """A deterministic schedule of pipeline strikes.

    Parameters
    ----------
    kill_labels:
        Experiment labels (``spec.label``) to strike.
    mode:
        ``"exit"`` kills the worker process outright (parallel grids
        only — it would take the caller down in serial runs, so serial
        execution downgrades it to ``"raise"``); ``"sigkill"`` delivers
        an uncatchable SIGKILL to the worker instead (no atexit, no
        cleanup — the harshest crash a process can model; also
        downgraded to ``"raise"`` in serial runs); ``"raise"`` raises a
        :class:`~repro.errors.FaultError` from inside the experiment;
        ``"hang"`` sleeps ``hang_s`` seconds (to trip per-experiment
        timeouts) and then returns normally.
    max_strikes:
        Strikes delivered per label before the experiment is allowed
        to succeed.  Set it at or above the runner's attempt budget to
        make an experiment unrecoverable.
    marker_dir:
        Directory for the atomic strike markers (shared by all worker
        processes of a sweep).
    hang_s:
        Sleep duration for ``"hang"`` strikes.
    """

    kill_labels: tuple[str, ...] = ()
    mode: str = "exit"
    max_strikes: int = 1
    marker_dir: str = ".mnemo-chaos"
    hang_s: float = 5.0

    def __post_init__(self) -> None:
        if self.mode not in CHAOS_MODES:
            raise ConfigurationError(
                f"unknown chaos mode {self.mode!r}; choose from {CHAOS_MODES}"
            )
        if self.max_strikes < 0:
            raise ConfigurationError(
                f"max_strikes must be >= 0, got {self.max_strikes}"
            )
        if self.hang_s < 0:
            raise ConfigurationError(f"hang_s must be >= 0, got {self.hang_s}")

    def _marker(self, label: str, strike: int) -> Path:
        slug = hashlib.sha256(label.encode("utf-8")).hexdigest()[:16]
        return Path(self.marker_dir) / f"{slug}.{strike}"

    def strikes_delivered(self, label: str) -> int:
        """How many strikes have already hit *label*."""
        return sum(
            1 for k in range(self.max_strikes)
            if self._marker(label, k).exists()
        )

    def maybe_strike(self, label: str, allow_exit: bool = True) -> None:
        """Deliver the next strike for *label*, if any remain.

        Claims one strike slot atomically (``O_CREAT | O_EXCL`` marker
        file), so concurrent workers never double-count.  Once
        ``max_strikes`` markers exist the experiment runs untouched —
        that is what lets retries converge.
        """
        if label not in self.kill_labels or self.max_strikes == 0:
            return
        Path(self.marker_dir).mkdir(parents=True, exist_ok=True)
        for strike in range(self.max_strikes):
            path = self._marker(label, strike)
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(fd)
            if self.mode == "hang":
                time.sleep(self.hang_s)
                return
            if self.mode == "exit" and allow_exit:
                os._exit(17)
            if self.mode == "sigkill" and allow_exit:
                os.kill(os.getpid(), signal.SIGKILL)
            raise FaultError(
                f"chaos strike {strike + 1}/{self.max_strikes} on {label!r}"
            )
        return


def slowloris_probe(
    socket_path,
    partial: bytes = b'{"op": "statu',
    timeout_s: float = 30.0,
) -> dict | None:
    """Stall a control-socket request mid-line; returns the reply.

    Connects, sends *partial* (valid JSON prefix, **no** newline) and
    then goes silent — the classic slowloris posture.  A robust server
    must not pin a handler thread forever: it should answer a
    structured ``read_timeout`` error (returned parsed) or drop the
    connection (returns None).  ``timeout_s`` bounds how long the probe
    itself waits before giving up.
    """
    import json
    import socket as _socket

    with _socket.socket(_socket.AF_UNIX, _socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout_s)
        sock.connect(str(socket_path))
        sock.sendall(partial)
        try:
            data = sock.recv(65536)
        except OSError:
            return None
    if not data:
        return None
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None


def request_flood(
    socket_path,
    request: dict,
    n_requests: int = 32,
    concurrency: int = 16,
    timeout_s: float = 60.0,
) -> dict:
    """Fire a concurrent burst at the control socket; tally the outcomes.

    Launches ``concurrency`` threads collectively sending ``n_requests``
    copies of *request*, with no client-side pacing — the point is to
    overrun the admission queue.  Returns a tally::

        {"ok": ..., "overloaded": ..., "deadline_exceeded": ...,
         "other_error": ..., "connection_error": ..., "responses": [...]}

    Against a robust daemon every request lands in one of the first
    three buckets (answered, shed with a structured error, or expired
    with a structured error) — ``connection_error`` counts transport
    failures, which a flood must *not* cause.
    """
    import queue as _queue
    import threading

    from repro.service.serve import control_call

    if n_requests < 1 or concurrency < 1:
        raise ConfigurationError(
            "n_requests and concurrency must both be >= 1"
        )
    work: _queue.Queue = _queue.Queue()
    for _ in range(n_requests):
        work.put(request)
    responses: list[dict | None] = []
    lock = threading.Lock()

    def _worker() -> None:
        while True:
            try:
                req = work.get_nowait()
            except _queue.Empty:
                return
            try:
                response = control_call(socket_path, req, timeout=timeout_s)
            except (OSError, ValueError):
                response = None
            with lock:
                responses.append(response)

    threads = [
        threading.Thread(target=_worker, daemon=True)
        for _ in range(min(concurrency, n_requests))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout_s)
    tally = {
        "ok": 0, "overloaded": 0, "deadline_exceeded": 0,
        "other_error": 0, "connection_error": 0,
    }
    for response in responses:
        if response is None:
            tally["connection_error"] += 1
        elif response.get("ok"):
            tally["ok"] += 1
        elif response.get("error") in ("overloaded", "deadline_exceeded"):
            tally[response["error"]] += 1
        else:
            tally["other_error"] += 1
    tally["responses"] = responses
    return tally


def corrupt_store_rows(
    store,
    kinds: tuple[str, ...] = ("results", "traces", "hitmasks"),
    mode: str = "flip",
    limit: int | None = None,
) -> list[str]:
    """Corrupt entry bodies inside a SQLite store; returns fingerprints hit.

    Mutates row *bodies* of a :class:`~repro.store.SQLiteStore`
    directly (below the codec layer), modelling storage-level rot rather
    than a torn write — WAL transactions make torn writes impossible,
    but a flipped bit on disk is still a flipped bit.  ``"flip"`` XORs
    the middle byte (subtle corruption only a checksum catches);
    ``"truncate"`` halves the blob.  *limit* caps how many entries are
    hit (None = all).  Deterministic walk in (kind, fingerprint) order.
    """
    if mode not in ("flip", "truncate"):
        raise ConfigurationError(
            f"unknown corruption mode {mode!r}; choose 'flip' or 'truncate'"
        )
    touched: list[str] = []
    for kind in kinds:
        for fingerprint in store.fingerprints(kind):
            row = store._row(kind, fingerprint)
            data = bytes(row["body"])
            if not data:
                continue
            mid = len(data) // 2
            if mode == "truncate":
                data = data[:mid]
            else:
                data = data[:mid] + bytes([data[mid] ^ 0xFF]) + data[mid + 1:]

            def txn(conn, kind=kind, fingerprint=fingerprint, data=data):
                conn.execute(
                    "UPDATE entries SET body = ? WHERE kind = ?"
                    " AND fingerprint = ?",
                    (data, kind, fingerprint),
                )

            store.db.write_txn(txn)
            touched.append(fingerprint)
            if limit is not None and len(touched) >= limit:
                return touched
    return touched
