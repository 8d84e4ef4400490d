"""Chaos drills against the served advisor's request plane.

Four attacks, all of which a robust daemon must survive without
corruption or crashes (``make serve-drill`` runs this file in CI):

- **slowloris** — a client that stalls mid-request-line must get a
  structured ``read_timeout`` answer, not pin a handler thread.
- **flood** — a burst past the admission queue must be answered or
  *cleanly* shed with structured ``overloaded`` errors; transport-level
  connection failures are never acceptable.
- **mid-request SIGKILL** — killing the supervised daemon child while
  an advice request is in flight must end in an automatic restart, a
  working daemon, and a structurally sound store.
- **unparseable / handler-breaking lines** — a 100 000-deep JSON line
  or a handler that raises still gets a structured answer.

``TestIOThreads`` holds the properties of the control socket's I/O
threads against behaviour only: nothing is built per request, a stalled
client delays nobody, idle threads retire, shutdown is prompt.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import telemetry
from repro.faults import request_flood, slowloris_probe
from repro.service import GuardService, ServeConfig, control_call
from repro.store import SQLiteStore
from repro.store.db import Database

#: Cheap advisor settings (profile in seconds, memoized thereafter).
FAST = dict(downsample=50.0, repeats=1, interval_s=0.1, validate_every=0)


def _wait_for(predicate, timeout_s=60.0, interval_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


class _Daemon:
    """An in-thread daemon with deterministic setup/teardown."""

    def __init__(self, tmp_path, **overrides):
        merged = {**FAST, "rundir": str(tmp_path / "run"),
                  "run_id": "test-chaos", **overrides}
        self.config = ServeConfig(**merged)
        self.service = GuardService(self.config, tick_fn=lambda: 0)
        self._codes = []
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self):
        with telemetry.session(run_id=self.config.run_id):
            self._codes.append(self.service.run())

    def __enter__(self):
        self._thread.start()
        assert _wait_for(self.config.socket_path.exists)
        return self

    def __exit__(self, *exc):
        self.service.request_stop()
        self._thread.join(timeout=30)
        assert self._codes == [0]


def _connect(path, payload: bytes = b"", timeout_s: float = 30.0):
    """A raw client connection that has sent *payload* and nothing else."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout_s)
    sock.connect(str(path))
    sock.sendall(payload)
    return sock


def _reply(sock) -> dict | None:
    """The one response line on *sock* (None when the daemon hung up)."""
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = sock.recv(65536)
        if not chunk:
            break
        buf += chunk
    sock.close()
    return json.loads(buf) if buf else None


def _io_threads_alive():
    return [
        t for t in threading.enumerate()
        if t.name.startswith("mnemo-serve-io-")
    ]


class TestUnparseableLines:
    @pytest.mark.parametrize("line", [
        b"[" * 100_000,
        b'{"op": "size", "slo": ' + b"[" * 100_000,
        b'{"op": "size", "x": ' + b'{"a": ' * 50_000 + b"1" + b"}" * 50_001,
    ], ids=["bare-arrays", "inside-a-size-field", "closed-objects"])
    def test_deeply_nested_line_gets_an_answer(self, tmp_path, line):
        """``json.loads`` raises RecursionError here: at PR 22 the client
        saw a dropped connection and the daemon printed a traceback."""
        with _Daemon(tmp_path) as daemon:
            path = daemon.config.socket_path
            reply = _reply(_connect(path, line + b"\n"))
            assert reply is not None, "the daemon dropped the connection"
            assert reply["ok"] is False
            assert "JSON" in reply["error"]
            assert control_call(path, {"op": "ping"})["ok"]

    def test_handler_that_raises_still_answers(self, tmp_path):
        with _Daemon(tmp_path) as daemon:
            path = daemon.config.socket_path
            real_control = daemon.service._control

            def broken(request):
                raise RuntimeError("handler bug")

            daemon.service._control = broken
            try:
                reply = control_call(path, {"op": "ping"})
            finally:
                daemon.service._control = real_control
            assert reply["ok"] is False
            assert reply["error"] == "internal_error"
            assert "handler bug" in reply["detail"]
            assert control_call(path, {"op": "ping"})["ok"]


class TestIOThreads:
    def test_nothing_is_built_per_request(self, tmp_path, monkeypatch):
        """300 sequential warm ``size`` calls: no thread, no connection.

        At PR 22 (one thread per connection, one store connection per
        thread) both counts below were >= 300.
        """
        store_path = tmp_path / "store.db"
        with _Daemon(tmp_path, store=str(store_path)) as daemon:
            path = daemon.config.socket_path
            for _ in range(5):  # the profile, and the first few threads
                assert control_call(
                    path, {"op": "size"}, timeout=120.0,
                )["ok"]
            starts, opens = [], []
            real_start, real_open = threading.Thread.start, Database._open

            def counted_start(thread):
                starts.append(thread.name)
                return real_start(thread)

            def counted_open(db):
                opens.append(threading.current_thread().name)
                return real_open(db)

            monkeypatch.setattr(threading.Thread, "start", counted_start)
            monkeypatch.setattr(Database, "_open", counted_open)
            started_before = control_call(
                path, {"op": "status"},
            )["io_threads_started"]
            for _ in range(300):
                assert control_call(path, {"op": "size"})["ok"]
            monkeypatch.undo()
            # every served request was journaled before its reply left
            client_view = SQLiteStore(store_path)
            try:
                rows = client_view.oplog.entries(
                    daemon.config.run_id, kind="request_served",
                )
            finally:
                client_view.close()
            assert len(rows) == 305
            status = control_call(path, {"op": "status"})
            assert len(starts) <= 3, starts
            assert len(opens) <= 3, opens
            assert status["io_threads_started"] - started_before <= 3
            assert 1 <= status["io_threads"] <= status["io_threads_started"]
            metrics = control_call(path, {"op": "metrics"})["prometheus"]
            assert "serve_io_threads_started" in metrics
            assert "serve_io_threads " in metrics

    def test_journal_writers_queue_outside_sqlite(self, tmp_path, monkeypatch):
        """Four closed-loop clients: the ``request_served`` appends of
        their I/O threads queue in the service, one at a time.  Two
        connections meeting on SQLite's write lock cost the loser a
        busy-handler sleep of a whole warm request, as often as the
        clients happen to phase that way: with the threads kept but no
        queue, 17 to 33 of these 240 appends started while another was
        inside; with it, none.  The queue is bounded, so an append
        held up by a WAL checkpoint or a descheduled thread may be
        passed: a few overlaps are allowed."""
        from repro.store.oplog import Oplog

        store_path = tmp_path / "store.db"
        gate = threading.Lock()
        inside, met, failures = [0], [0], []
        real_append = Oplog.append

        def watched_append(oplog, *args, **kwargs):
            with gate:
                met[0] += inside[0] > 0
                inside[0] += 1
            try:
                return real_append(oplog, *args, **kwargs)
            finally:
                with gate:
                    inside[0] -= 1

        def client(path):
            try:
                for _ in range(60):
                    if not control_call(path, {"op": "size"})["ok"]:
                        failures.append("not ok")
            except (OSError, ValueError) as exc:
                failures.append(repr(exc))

        with _Daemon(tmp_path, store=str(store_path)) as daemon:
            path = daemon.config.socket_path
            assert control_call(path, {"op": "size"}, timeout=120.0)["ok"]
            monkeypatch.setattr(Oplog, "append", watched_append)
            clients = [
                threading.Thread(target=client, args=(path,), daemon=True)
                for _ in range(4)
            ]
            for t in clients:
                t.start()
            for t in clients:
                t.join(timeout=120)
            monkeypatch.undo()
            assert not any(t.is_alive() for t in clients)
            assert failures == []
            assert met[0] <= 5, met  # of 240
            client_view = SQLiteStore(store_path)
            try:
                rows = client_view.oplog.entries(
                    daemon.config.run_id, kind="request_served",
                )
            finally:
                client_view.close()
            assert len(rows) == 241

    def test_stalled_clients_delay_nobody(self, tmp_path):
        with _Daemon(tmp_path, read_timeout_s=1.5) as daemon:
            path = daemon.config.socket_path
            stalled = [_connect(path, b'{"op": "statu') for _ in range(8)]
            t0 = time.monotonic()
            assert control_call(path, {"op": "ping"})["ok"]
            assert time.monotonic() - t0 < 1.0
            for sock in stalled:
                reply = _reply(sock)
                assert reply is not None and reply["error"] == "read_timeout"

    def test_idle_threads_retire_after_a_burst(self, tmp_path):
        with _Daemon(tmp_path, workers=1, queue_depth=2) as daemon:
            path = daemon.config.socket_path
            # 32 connections open at once: each pins one thread
            burst = [_connect(path) for _ in range(32)]
            assert _wait_for(lambda: control_call(
                path, {"op": "status"},
            )["io_threads"] >= 33, timeout_s=10.0)
            for sock in burst:
                sock.sendall(b'{"op": "status"}\n')
            assert all(_reply(sock)["ok"] for sock in burst)
            keep = daemon.config.workers + daemon.config.queue_depth
            assert _wait_for(lambda: control_call(
                path, {"op": "status"},
            )["io_threads"] <= keep + 1, timeout_s=10.0)

    def test_thread_counts_hold_under_contention(self, tmp_path):
        """More clients than cores, a short switch interval: a lost
        update to the waiting / live counts would strand the socket
        with nobody in ``accept()`` or leave the counts off for good."""
        failures = []

        def client(path):
            try:
                for _ in range(40):
                    if not control_call(path, {"op": "ping"})["ok"]:
                        failures.append("not ok")
            except (OSError, ValueError) as exc:
                failures.append(repr(exc))

        others = set(_io_threads_alive())
        interval = sys.getswitchinterval()
        with _Daemon(tmp_path, workers=1, queue_depth=1) as daemon:
            path = daemon.config.socket_path
            sys.setswitchinterval(1e-5)
            try:
                clients = [
                    threading.Thread(target=client, args=(path,), daemon=True)
                    for _ in range(12)
                ]
                for t in clients:
                    t.start()
                for t in clients:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in clients)
            finally:
                sys.setswitchinterval(interval)
            assert failures == []
            server = daemon.service._server

            def settled():
                with server._lock:
                    counts = (server.live, server._waiting)
                alive = len(set(_io_threads_alive()) - others)
                return counts == (alive, alive)

            assert _wait_for(settled, timeout_s=10.0)
            assert 1 <= server.live <= 3  # workers + queue_depth + 1
            assert control_call(path, {"op": "ping"})["ok"]

    def test_stop_is_prompt_with_clients_connected(self, tmp_path):
        others = set(_io_threads_alive())  # of a daemon not ours, if any
        daemon = _Daemon(tmp_path)
        with daemon:
            path = daemon.config.socket_path
            # leave a few threads idle in accept() and two pinned by
            # clients that connected and never sent a byte
            burst = [_connect(path) for _ in range(4)]
            for sock in burst:
                sock.sendall(b'{"op": "ping"}\n')
            assert all(_reply(sock)["ok"] for sock in burst)
            silent = [_connect(path) for _ in range(2)]
            assert _wait_for(lambda: daemon.service.status()[
                "io_threads"
            ] >= 3, timeout_s=10.0)
            t0 = time.monotonic()
            daemon.service.request_stop()
            daemon._thread.join(timeout=30)
            assert not daemon._thread.is_alive()
            assert time.monotonic() - t0 < 2.0
            assert not path.exists()
            # nobody is left blocked in accept(): only the two pinned
            # threads may outlive run(), until their client goes away
            assert _wait_for(
                lambda: len(set(_io_threads_alive()) - others) <= 2,
                timeout_s=5.0,
            )
            for sock in silent:
                sock.close()
            assert _wait_for(
                lambda: not set(_io_threads_alive()) - others,
                timeout_s=10.0,
            )


class TestSlowloris:
    def test_stalled_client_gets_structured_timeout(self, tmp_path):
        with _Daemon(tmp_path, read_timeout_s=0.5) as daemon:
            t0 = time.monotonic()
            reply = slowloris_probe(daemon.config.socket_path)
            elapsed = time.monotonic() - t0
            assert reply is not None, "handler dropped the connection"
            assert reply["ok"] is False
            assert reply["error"] == "read_timeout"
            assert reply["read_timeout_s"] == 0.5
            assert elapsed < 5.0  # bounded by the timeout, not forever
            # the daemon is unharmed
            assert control_call(
                daemon.config.socket_path, {"op": "ping"},
            )["ok"]

    def test_oversized_request_line_rejected(self, tmp_path):
        with _Daemon(tmp_path, max_request_bytes=256) as daemon:
            huge = {"op": "ping", "padding": "x" * 1024}
            reply = control_call(daemon.config.socket_path, huge)
            assert reply["ok"] is False
            assert reply["error"] == "request_too_large"
            assert control_call(
                daemon.config.socket_path, {"op": "ping"},
            )["ok"]


class TestFlood:
    def test_flood_past_admission_queue_sheds_cleanly(self, tmp_path):
        with _Daemon(tmp_path, workers=1, queue_depth=1) as daemon:
            # warm the profile so flood timing is advisor-independent
            assert control_call(
                daemon.config.socket_path, {"op": "size"}, timeout=120.0,
            )["ok"]
            # slow the op down so the burst actually queues
            advisor = daemon.service.advisor
            real_size = advisor.size

            def slow_size(**kwargs):
                time.sleep(0.3)
                return real_size(**kwargs)

            advisor.size = slow_size
            tally = request_flood(
                daemon.config.socket_path, {"op": "size"},
                n_requests=12, concurrency=12,
            )
            assert tally["connection_error"] == 0, tally
            assert tally["other_error"] == 0, tally
            assert tally["ok"] >= 1, tally
            assert tally["overloaded"] >= 1, tally
            shed = [
                r for r in tally["responses"]
                if r and r.get("error") == "overloaded"
            ]
            assert all(r["retry_after_s"] > 0 for r in shed)
            # the daemon answers normally once the burst passes
            advisor.size = real_size
            assert control_call(
                daemon.config.socket_path, {"op": "size"}, timeout=30.0,
            )["ok"]

    def test_tiny_deadline_is_a_structured_error(self, tmp_path):
        with _Daemon(tmp_path, workers=1, queue_depth=2) as daemon:
            assert control_call(
                daemon.config.socket_path, {"op": "size"}, timeout=120.0,
            )["ok"]
            advisor = daemon.service.advisor
            real_size = advisor.size

            def slow_size(**kwargs):
                time.sleep(0.5)
                return real_size(**kwargs)

            advisor.size = slow_size
            reply = control_call(
                daemon.config.socket_path,
                {"op": "size", "deadline_s": 0.01},
                timeout=30.0,
            )
            assert reply["ok"] is False
            assert reply["error"] == "deadline_exceeded"
            assert reply["deadline_s"] == 0.01


class TestMidRequestKill:
    """SIGKILL the supervised child mid-request; supervision recovers."""

    def _launch(self, tmp_path, store_path):
        rundir = tmp_path / "run"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--workload", "trending",
                "--downsample", "50",
                "--repeats", "1",
                "--validate-every", "0",
                "--interval", "0.2",
                "--rundir", str(rundir),
                "--store", str(store_path),
            ],
            env=env,
            cwd=tmp_path,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        return proc, ServeConfig(rundir=str(rundir))

    def _heartbeat(self, config):
        try:
            return json.loads(config.heartbeat_path.read_text())
        except (OSError, json.JSONDecodeError):
            return None

    def test_sigkill_mid_request_restarts_without_corruption(self, tmp_path):
        store_path = tmp_path / "store.db"
        proc, config = self._launch(tmp_path, store_path)
        try:
            assert _wait_for(
                lambda: (self._heartbeat(config) or {}).get("ticks", 0) >= 1,
                timeout_s=180.0,
            ), "daemon never became healthy"
            assert control_call(
                config.socket_path, {"op": "size"}, timeout=120.0,
            )["ok"]
            first_pid = self._heartbeat(config)["pid"]
            assert first_pid != proc.pid  # supervised: child != parent

            # fire a request and kill the child while it is in flight
            def doomed():
                try:
                    control_call(
                        config.socket_path, {"op": "size"}, timeout=30.0,
                    )
                except (OSError, ValueError):
                    pass  # losing THIS request is expected; corruption is not

            killer_victim = threading.Thread(target=doomed, daemon=True)
            killer_victim.start()
            time.sleep(0.05)
            os.kill(first_pid, signal.SIGKILL)
            killer_victim.join(timeout=60)

            # the supervisor restarts a fresh child on the same socket
            assert _wait_for(
                lambda: (
                    (self._heartbeat(config) or {}).get("pid")
                    not in (None, first_pid)
                    and (self._heartbeat(config) or {}).get("status")
                    == "running"
                ),
                timeout_s=180.0,
            ), "supervisor never restarted the child"
            second_pid = self._heartbeat(config)["pid"]
            assert second_pid != first_pid
            assert control_call(
                config.socket_path, {"op": "ping"}, timeout=10.0,
            )["ok"]
            sized = control_call(
                config.socket_path, {"op": "size"}, timeout=120.0,
            )
            assert sized["ok"]
            assert sized["choice"]["n_fast_keys"] > 0

            # graceful end through the front door
            assert control_call(
                config.socket_path, {"op": "shutdown"}, timeout=10.0,
            )["ok"]
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

        # zero corruption: SQLite verdict + both service starts journaled
        store = SQLiteStore(store_path)
        try:
            assert store.integrity_check() == "ok"
            started = [
                e for e in store.oplog.entries("serve")
                if e.kind == "service_started"
            ]
            assert len(started) >= 2  # original + post-SIGKILL restart
        finally:
            store.close()
