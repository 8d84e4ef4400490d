"""The served advisor: guard ticks plus a full advice API over a socket.

``mnemo serve`` turned the PR 4 guard loop into a long-lived service;
this module turns that service into a *served advisor*.  Besides the
scheduled guard ticks (drift + margin + periodic validation, journaled
to the oplog), :class:`GuardService` now answers advice requests over
its unix-socket control API — one JSON request line in, one JSON
response line out:

========== ===================================================
op          what it does
========== ===================================================
``ping``    liveness probe (the only op open without a token)
``status``  the heartbeat document, plus request-plane state
``metrics`` the telemetry registry in Prometheus text format
``size``    run the Mnemo advisor for a named workload profile
``validate`` replay a sizing through the recommendation validator
``drift``   score a submitted key-stream sample for drift
``reload``  hot-swap the watched recommendation, no restart
``register`` / ``revoke``  manage auth tokens (oplog-journaled)
``shutdown`` finish the current tick and exit gracefully
========== ===================================================

The socket is served by I/O threads that live across requests and
accept their own connections (:class:`_ControlServer`): no thread and
no store connection is built per request, and every reply is sent only
after its ``request_served`` oplog row is committed.  The heavy ops
(``size`` / ``validate`` / ``drift``) run on the I/O thread that read
them, admitted by :class:`~repro.service.requests.RequestPlane`: at
most ``workers`` compute at once and ``queue_depth`` more wait, beyond
which a request is shed with a structured ``overloaded`` error and a
``retry_after_s`` hint; every request carries a deadline with
cooperative cancellation, and a client that sends a partial line and
stalls (slowloris) is cut off by a read timeout instead of pinning a
handler thread.  When the advisor or store errors mid-request the
service degrades gracefully — the last good response for the same
parameters is re-served flagged ``stale: true`` with its age — and a
failing tick never kills the loop.  See ``docs/SERVE.md`` for the full
schema.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import sys
import threading
import time
import traceback
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro import telemetry
from repro.core.advice import AdviceRequest
from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    GuardError,
    ReproError,
    StoreError,
    WorkloadError,
)
from repro.service.requests import (
    AuthRegistry,
    Deadline,
    RequestPlane,
    is_real,
    is_whole,
    require,
)
from repro.service.signals import TerminationSignal, handle_termination
from repro.store.oplog import (
    KIND_CONFIG_RELOADED,
    KIND_REQUEST_SERVED,
    KIND_TOKEN_REGISTERED,
    KIND_TOKEN_REVOKED,
)

#: Default run directory for the heartbeat file and control socket.
DEFAULT_RUNDIR = ".mnemo-serve"

#: Ops that run on the request plane (queued, deadline-checked).
ADVICE_OPS = ("size", "validate", "drift")

#: Every op ``_control`` dispatches; any other op is counted under
#: ``op="unknown"``, so junk ops add no metric series.
CONTROL_OPS = frozenset({
    "ping", "status", "metrics", "shutdown", "register", "revoke",
    "reload", *ADVICE_OPS,
})

#: ServeConfig fields a ``reload`` request may change.  Identity and
#: filesystem layout (rundir, run id, store path) stay fixed for the
#: daemon's lifetime — changing those is a restart, not a reload.
RELOADABLE_FIELDS = (
    "workload", "engine", "slo", "interval_s", "validate_every",
    "repeats", "seed", "downsample", "deadline_s",
)

#: Longest a journal append queues behind another one (seconds).
JOURNAL_QUEUE_S = 0.002

#: Parameter sets whose last good reply is kept for degraded service (LRU).
LAST_GOOD_ENTRIES = 256

#: What a parameter set that keys its last good reply as itself holds:
#: at most 4 fields, each a number, a bool, null or a short string.
_KEY_FIELDS, _KEY_CHARS = 4, 128
_KEY_SCALARS = frozenset({int, float, bool, type(None)})


@dataclass(frozen=True)
class ServeConfig:
    """Everything one guard service instance needs to know.

    Parameters
    ----------
    workload / engine / slo / repeats / seed / downsample:
        What the guard loop watches and how it is measured (mirrors
        ``mnemo guard``); together they are the watched
        :class:`~repro.core.advice.AdviceRequest`, :attr:`request`,
        which validates them.
    interval_s:
        Seconds between tick starts.
    validate_every:
        Run the full simulator replay every Nth tick (1 = every tick,
        0 = drift + margin only — the cheap mode for tight intervals).
    store:
        Optional path of the SQLite store that journals service events
        (and memoizes guard measurements).
    rundir:
        Directory for the heartbeat file and control socket.
    run_id:
        The oplog run id service events are journaled under.
    workers / queue_depth:
        Request-plane sizing: advice ops computed at once, and how many
        more may wait for one to finish before requests are shed.
    deadline_s / max_deadline_s:
        Default and ceiling for per-request deadlines; a request's own
        ``deadline_s`` field is clamped to the ceiling.
    read_timeout_s / max_request_bytes:
        Slowloris defences: how long a handler waits for the request
        line, and the largest request line accepted.
    """

    workload: str = "trending"
    engine: str = "redis"
    slo: float = 0.10
    interval_s: float = 60.0
    validate_every: int = 1
    repeats: int = 3
    seed: int | None = None
    downsample: float = 0.0
    store: str | None = None
    rundir: str = DEFAULT_RUNDIR
    run_id: str = "serve"
    workers: int = 2
    queue_depth: int = 8
    deadline_s: float = 30.0
    max_deadline_s: float = 300.0
    read_timeout_s: float = 5.0
    max_request_bytes: int = 1_000_000
    request: AdviceRequest = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # a reload installs whatever JSON a client sent, so the fields
        # it may change are checked for type as well as range
        object.__setattr__(self, "request", AdviceRequest(
            workload=self.workload, engine=self.engine, slo=self.slo,
            repeats=self.repeats, seed=self.seed, downsample=self.downsample,
        ))
        require(is_real(self.interval_s) and self.interval_s > 0,
                "interval_s", "positive", self.interval_s)
        require(is_whole(self.validate_every) and self.validate_every >= 0,
                "validate_every", "an integer >= 0", self.validate_every)
        require(self.workers >= 1, "workers", ">= 1", self.workers)
        require(self.queue_depth >= 1, "queue_depth", ">= 1",
                self.queue_depth)
        require(is_real(self.deadline_s)
                and 0 < self.deadline_s <= self.max_deadline_s,
                "deadline_s", f"in (0, {self.max_deadline_s}]",
                self.deadline_s)
        require(self.read_timeout_s > 0, "read_timeout_s", "positive",
                self.read_timeout_s)

    @property
    def heartbeat_path(self) -> Path:
        """Where the heartbeat JSON lives."""
        return Path(self.rundir) / "heartbeat.json"

    @property
    def socket_path(self) -> Path:
        """Where the control socket lives."""
        return Path(self.rundir) / "control.sock"


# -- control socket ------------------------------------------------------------


class _ControlServer:
    """The control socket and the I/O threads that accept on it.

    Leader/followers (``docs/SERVE.md``, "Threads"): a thread that
    accepts a connection leaves another waiting in ``accept()`` —
    starting one only when none is — serves it and goes back to
    ``accept()``, so nothing is built per request and a connection
    never waits for a thread.  It retires when more than ``workers +
    queue_depth`` already wait: the most advice in flight unshed.
    """

    # A flood must shed in the request plane, not bounce off the kernel
    # accept backlog (whose default of 5 turns bursts of connects into
    # EAGAIN connection errors before the daemon even sees them).
    request_queue_size = 128

    def __init__(self, path: str, service: "GuardService"):
        self.service = service
        self._keep = service.config.workers + service.config.queue_depth
        self._lock = threading.Lock()
        self._waiting = 0  # threads in accept(), or replying on the way back
        self._replying: set[int] = set()
        self._closed = False
        self.live = 0  # I/O threads alive now
        self.started = 0  # ... and ever started
        # Bind beside *path* and link the socket there once it listens, so
        # a client that connects as soon as the path exists is never
        # refused.  A link, not a rename: like a bind, it fails on a path
        # another daemon took after the stale-socket probe.  ".<pid>" is
        # shorter than the "control.sock" it becomes, so it fits wherever
        # that path does.
        staging = Path(path).with_name(f".{os.getpid()}")
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            staging.unlink(missing_ok=True)  # left by a SIGKILLed namesake
            self._sock.bind(str(staging))
            self._sock.listen(self.request_queue_size)
            os.link(staging, path)
        except OSError:
            self._sock.close()
            raise
        finally:
            staging.unlink(missing_ok=True)
        with self._lock:
            self._start_thread()

    def _start_thread(self) -> None:
        """Put one more thread into ``accept()``; caller holds the lock."""
        self._waiting += 1
        self.live += 1
        self.started += 1
        telemetry.count("serve.io_threads_started")
        telemetry.gauge("serve.io_threads", float(self.live))
        threading.Thread(
            target=self._io_loop, name=f"mnemo-serve-io-{self.started}",
            daemon=True,
        ).start()

    def replying(self) -> None:
        """Count the calling thread as waiting before its reply is written:
        the client's next connection can beat it back to ``accept()``."""
        with self._lock:
            if threading.get_ident() not in self._replying:
                self._replying.add(threading.get_ident())
                self._waiting += 1

    def _io_loop(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:  # close() below, or a connection that died
                conn = None  # in the backlog
            with self._lock:
                if conn is None and not self._closed:
                    continue
                self._waiting -= 1
                if conn is not None and not (self._waiting or self._closed):
                    self._start_thread()
            if conn is not None:
                self._serve(conn)
            with self._lock:
                if threading.get_ident() in self._replying:
                    self._replying.remove(threading.get_ident())
                    self._waiting -= 1
                if self._closed or self._waiting > self._keep:
                    self.live -= 1
                    telemetry.gauge("serve.io_threads", float(self.live))
                    return
                self._waiting += 1

    def _serve(self, conn: socket.socket) -> None:
        """One JSON request line in, one JSON response line out.

        The line ends at the first newline (what follows is ignored) or
        at EOF, and the read is bounded in both time (``read_timeout_s``
        per ``recv`` — a slowloris client that never finishes its line
        is answered ``read_timeout`` and dropped) and size
        (``max_request_bytes``, the newline included — an endless line
        is answered ``request_too_large``), so one bad client can never
        pin a thread or buffer unbounded garbage.
        """
        config = self.service.config
        limit = config.max_request_bytes
        try:
            conn.settimeout(config.read_timeout_s)
            line = b""
            try:
                while b"\n" not in line and len(line) <= limit:
                    chunk = conn.recv(65536)
                    if not chunk:
                        break
                    line += chunk
            except OSError:  # timeout: the client stalled mid-line
                telemetry.count("serve.slow_reads")
                response = {
                    "ok": False, "error": "read_timeout",
                    "read_timeout_s": config.read_timeout_s,
                }
            else:
                line = line[:line.find(b"\n") + 1 or None]  # to a newline
                if len(line) > limit:
                    response = {
                        "ok": False, "error": "request_too_large",
                        "max_request_bytes": limit,
                    }
                else:
                    try:
                        text = line.decode("utf-8").strip()
                        request = json.loads(text) if text else {}
                    except (UnicodeDecodeError, json.JSONDecodeError,
                            RecursionError):
                        request = None  # incl. a line nested too deep
                    response = self.service._control(request)
            self.replying()
            reply = json.dumps(response).encode("utf-8") + b"\n"
        except Exception as exc:  # noqa: BLE001 - a request that raises
            # still owes its client an answer, not a dropped connection
            traceback.print_exc()
            telemetry.count("serve.handler_errors")
            reply = json.dumps({
                "ok": False, "error": "internal_error", "detail": str(exc),
            }).encode("utf-8") + b"\n"
        try:
            conn.sendall(reply)
        except OSError:  # client already gone
            pass
        finally:
            conn.close()

    def close(self) -> None:
        """Wake and retire every thread in ``accept()``."""
        with self._lock:
            self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def control_call(socket_path, request: dict, timeout: float = 5.0) -> dict:
    """Send one control request to a running service; returns its reply."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout)
        sock.connect(str(socket_path))
        sock.sendall(json.dumps(request).encode("utf-8") + b"\n")
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                break
            buf += chunk
    return json.loads(buf.decode("utf-8"))


# -- the service ---------------------------------------------------------------


class GuardService:
    """The schedulable, observable served advisor.

    Parameters
    ----------
    config:
        The :class:`ServeConfig` in force.
    tick_fn:
        Zero-argument callable returning an int exit code per tick;
        defaults to ticking the service's own
        :class:`~repro.service.advisor.ServedAdvisor` so ticks and
        advice requests share one profiled recommendation.
    store:
        An open store to journal into; defaults to opening
        ``config.store`` (when set) on :meth:`run`.
    """

    def __init__(self, config: ServeConfig, tick_fn=None, store=None):
        self.config = config
        self.tick_fn = tick_fn
        self.store = store
        self._owns_store = store is None
        self.ticks = 0
        self.tick_failures = 0
        self.generation = 0
        self.last_exit_code: int | None = None
        self.started_unix: float | None = None
        self._stop = threading.Event()
        self._server: _ControlServer | None = None
        self._advisor = None
        self._advisor_lock = threading.Lock()
        # Journal writers queue here, not in SQLite: two connections that
        # meet on its write lock cost the loser a busy-handler sleep of a
        # millisecond or more (a whole warm request), and how often two
        # I/O threads meet depends on how their clients happen to phase.
        self._journal_lock = threading.Lock()
        self._plane = RequestPlane(
            workers=config.workers, queue_depth=config.queue_depth,
        )
        self._auth = AuthRegistry()
        self._last_good: OrderedDict = OrderedDict()
        self._last_good_lock = threading.Lock()
        self._requests_served = 0

    # -- the advisor -----------------------------------------------------------

    @property
    def advisor(self):
        """The live :class:`~repro.service.advisor.ServedAdvisor` snapshot.

        Built lazily; ``reload`` replaces it atomically, and in-flight
        requests keep whichever snapshot they dispatched against.
        """
        with self._advisor_lock:
            return self._advisor_locked()

    def _advisor_locked(self):
        """Build-or-return the advisor; caller holds ``_advisor_lock``."""
        if self._advisor is None:
            from repro.service.advisor import ServedAdvisor

            cache = self.store if self.store is not None else (
                self.config.store
            )
            self._advisor = ServedAdvisor(self.config, cache=cache)
        return self._advisor

    # -- control ---------------------------------------------------------------

    def request_stop(self) -> None:
        """Ask the run loop to finish the current tick and exit."""
        self._stop.set()

    def status(self) -> dict:
        """The heartbeat document (also served over the socket)."""
        now = time.time()
        advisor = self._advisor
        server = self._server
        return {
            "pid": os.getpid(),
            "run_id": self.config.run_id,
            "status": "stopping" if self._stop.is_set() else "running",
            "workload": self.config.workload,
            "engine": self.config.engine,
            "interval_s": self.config.interval_s,
            "ticks": self.ticks,
            "tick_failures": self.tick_failures,
            "last_exit_code": self.last_exit_code,
            "started_unix": self.started_unix,
            "updated_unix": now,
            "uptime_s": (
                round(now - self.started_unix, 3)
                if self.started_unix is not None else None
            ),
            "socket": str(self.config.socket_path),
            "generation": self.generation,
            "advisor_loaded": bool(advisor is not None and advisor.loaded),
            "auth_active": self._auth.active,
            "workers": self.config.workers,
            "queue_depth": self.config.queue_depth,
            "requests_served": self._requests_served,
            "io_threads": 0 if server is None else server.live,
            "io_threads_started": 0 if server is None else server.started,
        }

    def _control(self, request: dict | None) -> dict:
        """Dispatch one socket request (bad input never kills the service)."""
        if not isinstance(request, dict) or "op" not in request:
            return {"ok": False, "error": "expected one JSON line with 'op'"}
        op = str(request["op"])
        label = op if op in CONTROL_OPS else "unknown"
        telemetry.count("serve.control", op=label)
        if op == "ping":
            return {
                "ok": True, "op": "ping", "pid": os.getpid(),
                "auth_active": self._auth.active,
            }
        if not self._auth.authorize(request.get("token")):
            telemetry.count("serve.unauthorized", op=label)
            return {"ok": False, "op": op, "error": "unauthorized"}
        if op == "status":
            return {"ok": True, **self.status()}
        if op == "metrics":
            tel = telemetry.get()
            text = "" if tel is None else tel.metrics.to_prometheus()
            return {"ok": True, "prometheus": text}
        if op == "shutdown":
            self.request_stop()
            return {"ok": True, "stopping": True}
        if op == "register":
            return self._op_register(request)
        if op == "revoke":
            return self._op_revoke(request)
        if op == "reload":
            return self._op_reload(request)
        if op in ADVICE_OPS:
            return self._op_advice(op, request)
        return {"ok": False, "error": f"unknown op {op!r}"}

    # -- auth ops --------------------------------------------------------------

    def _op_register(self, request: dict) -> dict:
        try:
            digest = self._auth.register(request.get("new_token"))
        except ConfigurationError as exc:
            return {
                "ok": False, "op": "register",
                "error": "bad_request", "detail": str(exc),
            }
        self._journal(KIND_TOKEN_REGISTERED, token_sha256=digest)
        telemetry.event("serve.token_registered")
        return {
            "ok": True, "op": "register",
            "token_sha256": digest, "auth_active": True,
            "n_tokens": self._auth.n_tokens,
        }

    def _op_revoke(self, request: dict) -> dict:
        token = request.get("revoke_token")
        if not isinstance(token, str) or not token:
            return {
                "ok": False, "op": "revoke", "error": "bad_request",
                "detail": "revoke needs a 'revoke_token' string",
            }
        from repro.service.requests import token_digest

        revoked = self._auth.revoke(token)
        if revoked:
            self._journal(
                KIND_TOKEN_REVOKED, token_sha256=token_digest(token),
            )
            telemetry.event("serve.token_revoked")
        return {
            "ok": True, "op": "revoke", "revoked": revoked,
            "auth_active": self._auth.active,
            "n_tokens": self._auth.n_tokens,
        }

    # -- hot reload ------------------------------------------------------------

    def _op_reload(self, request: dict) -> dict:
        """Build a replacement advisor, then swap it in atomically.

        The new profile is fully measured *before* the swap, so advice
        requests keep being answered from the old snapshot for the
        whole (potentially long) rebuild; a broken override leaves the
        running config untouched.
        """
        overrides = {
            k: request[k] for k in RELOADABLE_FIELDS if k in request
        }
        rejected = sorted(
            k for k in request
            if k not in ("op", "token", *RELOADABLE_FIELDS)
        )
        if rejected:
            return {
                "ok": False, "op": "reload", "error": "bad_request",
                "detail": f"not reloadable: {', '.join(rejected)}",
            }
        from repro.service.advisor import ServedAdvisor

        try:
            new_config = replace(self.config, **overrides)
            cache = self.store if self.store is not None else (
                new_config.store
            )
            deadline = Deadline(self.config.max_deadline_s)
            advisor = ServedAdvisor(new_config, cache=cache)
            advisor.ensure_loaded(deadline)
        except (TypeError, ReproError) as exc:
            telemetry.count("serve.reload_failures")
            return {
                "ok": False, "op": "reload", "error": "reload_failed",
                "detail": str(exc),
            }
        with self._advisor_lock:
            self.config = new_config
            self._advisor = advisor
            self.generation += 1
            generation = self.generation
        self._last_good.clear()
        self._journal(
            KIND_CONFIG_RELOADED, generation=generation,
            **{k: overrides[k] for k in sorted(overrides)},
        )
        telemetry.event("serve.reloaded", generation=generation)
        return {
            "ok": True, "op": "reload", "generation": generation,
            "workload": new_config.workload, "engine": new_config.engine,
            "slo": new_config.slo, "changed": sorted(overrides),
        }

    # -- advice ops ------------------------------------------------------------

    def _request_deadline(self, request: dict) -> Deadline:
        budget = request.get("deadline_s")
        if not is_real(budget):  # absent, mistyped, NaN (never expires)
            budget = self.config.deadline_s
        budget = min(max(float(budget), 1e-3), self.config.max_deadline_s)
        return Deadline(budget)

    def _op_advice(self, op: str, request: dict) -> dict:
        # snapshot advisor AND generation together: reloads don't move
        # in-flight work, and a response must label the snapshot it was
        # actually computed against
        with self._advisor_lock:
            advisor = self._advisor_locked()
            generation = self.generation
        deadline = self._request_deadline(request)
        t0 = time.perf_counter()
        response = self._plane.submit(
            op,
            lambda: self._serve_advice(
                op, advisor, generation, request, deadline,
            ),
            deadline,
        )
        elapsed = time.perf_counter() - t0
        telemetry.observe("serve.request_s", elapsed, op=op)
        self._requests_served += 1
        self._journal(
            KIND_REQUEST_SERVED, op=op,
            status=(
                "ok" if response.get("ok")
                else str(response.get("error", "error"))
            ),
            stale=bool(response.get("stale")),
            duration_s=round(elapsed, 6),
        )
        return response

    def _memo_key(self, op: str, request: dict) -> tuple | str:
        """The degraded-mode key: the parameters, or a digest of them.

        A few short scalars (a ``size``, a ``validate``) are the key
        themselves, each beside its type so that ``1``, ``1.0`` and
        ``true`` stay three keys as they are three JSON texts.  Anything
        else gets a fixed-size digest, never the text itself — a
        ``drift`` sample at ``max_request_bytes`` would pin a megabyte
        per entry.
        """
        params = [
            (k, type(v), v) for k, v in sorted(request.items())
            if k not in ("op", "token", "deadline_s")
        ]
        if len(params) <= _KEY_FIELDS and all(
            t in _KEY_SCALARS or (t is str and len(v) <= _KEY_CHARS)
            for _, t, v in params
        ):
            return (op, *params)
        params = {k: v for k, _, v in params}
        text = f"{op}:{json.dumps(params, sort_keys=True, default=str)}"
        return hashlib.sha256(text.encode()).hexdigest()

    def _serve_advice(self, op: str, advisor, generation: int,
                      request: dict, deadline: Deadline) -> dict:
        """Run one advice op on the I/O thread; degrade instead of erroring.

        Runs the op against the dispatched advisor snapshot.  Parameter
        errors come back as ``bad_request``; an advisor or store failure
        re-serves the last good response for the same parameters with
        ``stale: true`` and its age, keeping a degraded daemon useful.
        """
        key = self._memo_key(op, request)
        try:
            if op == "size":
                body = advisor.size(
                    workload=request.get("workload"),
                    engine=request.get("engine"),
                    slo=request.get("slo"),
                    deadline=deadline,
                )
            elif op == "validate":
                body = advisor.validate(
                    n_fast_keys=request.get("n_fast_keys"),
                    budget_pct=request.get("budget_pct"),
                    deadline=deadline,
                )
            else:
                body = advisor.drift(
                    keys=request.get("keys"),
                    sizes=request.get("sizes"),
                    deadline=deadline,
                )
        except DeadlineExceededError:
            raise  # the plane renders the structured response
        except (ConfigurationError, WorkloadError, GuardError) as exc:
            return {
                "ok": False, "op": op,
                "error": "bad_request", "detail": str(exc),
            }
        except ReproError as exc:
            return self._degrade(op, key, exc)
        response = {
            "ok": True, "op": op, "generation": generation,
            "stale": False, **body,
        }
        with self._last_good_lock:
            self._last_good[key] = (time.time(), response)
            self._last_good.move_to_end(key)
            if len(self._last_good) > LAST_GOOD_ENTRIES:
                self._last_good.popitem(last=False)
        return response

    def _degrade(self, op: str, key, exc: ReproError) -> dict:
        """Serve the last good answer, honestly flagged stale."""
        telemetry.count("serve.degraded", op=op)
        memo = self._last_good.get(key)
        if memo is None:
            return {
                "ok": False, "op": op,
                "error": "advisor_error", "detail": str(exc),
            }
        at, response = memo
        telemetry.count("serve.stale_served", op=op)
        return {
            **response,
            "stale": True,
            "stale_age_s": round(time.time() - at, 3),
            "stale_reason": str(exc),
        }

    # -- plumbing --------------------------------------------------------------

    def _write_heartbeat(self, status: str | None = None) -> None:
        """Atomically replace the heartbeat file (rename, never a torn read)."""
        doc = self.status()
        if status is not None:
            doc["status"] = status
        path = self.config.heartbeat_path
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        os.replace(tmp, path)

    def _open_socket(self) -> None:
        """Bind the control socket, reclaiming a stale path safely.

        A SIGKILL leaves the previous socket file behind and a naive
        rebind fails — but blind unlinking would steal the address from
        a *live* daemon.  So an existing path is probed with ``ping``
        first: an answer means another instance owns it (refuse to
        start); silence means the file is stale and safe to reclaim.
        """
        path = self.config.socket_path
        if path.exists():
            alive = None
            try:
                alive = control_call(path, {"op": "ping"}, timeout=1.0)
            except (OSError, ValueError):
                alive = None
            if alive is not None and alive.get("ok"):
                raise ConfigurationError(
                    f"another service (pid {alive.get('pid')}) is already "
                    f"listening on {path}; refusing to steal its socket"
                )
            telemetry.event("serve.stale_socket_reclaimed", path=str(path))
            path.unlink()
        self._server = _ControlServer(str(path), self)

    def _close_socket(self) -> None:
        if self._server is not None:
            self._server.close()
            self._server = None
        try:
            self.config.socket_path.unlink()
        except OSError:
            pass

    def _journal(self, kind: str, **payload) -> None:
        if self.store is not None:
            # queue behind another writer's append (well under a
            # millisecond), not behind the WAL checkpoint its commit may
            # run into (two fsyncs): SQLite takes a second writer then
            held = self._journal_lock.acquire(timeout=JOURNAL_QUEUE_S)
            try:
                self.store.oplog.append(self.config.run_id, kind, **payload)
            except StoreError:  # pragma: no cover - contention exhausted
                telemetry.count("serve.journal_failures")
            finally:
                if held:
                    self._journal_lock.release()

    # -- the loop --------------------------------------------------------------

    def run(self, max_ticks: int | None = None) -> int:
        """Serve until stopped; returns the process exit code.

        ``max_ticks`` bounds the run (tests, drills); None serves until
        a stop request or termination signal arrives.  Returns 0 on any
        graceful stop; a :class:`TerminationSignal` still unwinds
        through cleanup but is re-raised for the CLI to translate into
        ``128 + signum``.  A tick that raises is journaled and counted
        — the loop (and the request plane riding on it) keeps serving.
        """
        Path(self.config.rundir).mkdir(parents=True, exist_ok=True)
        if self.store is None and self.config.store is not None:
            from repro.store.store import SQLiteStore
            self.store = SQLiteStore(self.config.store)
        if self.store is not None:
            self._auth = AuthRegistry.replay(
                self.store.oplog, self.config.run_id,
            )
        if self.tick_fn is None:
            self.tick_fn = lambda: self.advisor.tick(self.ticks + 1)
        self._stop.clear()
        self.started_unix = time.time()
        self._open_socket()
        self._plane.start()
        self._journal(
            "service_started", pid=os.getpid(),
            workload=self.config.workload, engine=self.config.engine,
            interval_s=self.config.interval_s,
        )
        telemetry.event(
            "serve.started", workload=self.config.workload,
            interval_s=self.config.interval_s,
        )
        self._write_heartbeat()
        try:
            while not self._stop.is_set():
                t0 = time.perf_counter()
                try:
                    with telemetry.span("serve.tick", n=self.ticks + 1):
                        code = int(self.tick_fn())
                except Exception as exc:  # noqa: BLE001 - a failing tick
                    # must never take the request plane down with it
                    code = None
                    self.tick_failures += 1
                    telemetry.count("serve.tick_failures")
                    self._journal(
                        "guard_tick_failed", n=self.ticks + 1,
                        error=str(exc)[:500],
                    )
                elapsed = time.perf_counter() - t0
                self.ticks += 1
                if code is not None:
                    self.last_exit_code = code
                    telemetry.count("serve.ticks", status=str(code))
                    telemetry.observe("serve.tick_s", elapsed)
                    self._journal(
                        "guard_tick", n=self.ticks, exit_code=code,
                        duration_s=round(elapsed, 6),
                    )
                self._write_heartbeat()
                if max_ticks is not None and self.ticks >= max_ticks:
                    break
                # sleep in short slices so stop requests land promptly
                deadline = t0 + self.config.interval_s
                while (
                    not self._stop.is_set()
                    and time.perf_counter() < deadline
                ):
                    self._stop.wait(0.05)
            return 0
        except TerminationSignal:
            telemetry.event("serve.terminated")
            raise
        finally:
            self._close_socket()
            self._plane.close()
            self._journal(
                "service_stopped", pid=os.getpid(), ticks=self.ticks,
            )
            telemetry.event("serve.stopped", ticks=self.ticks)
            self._write_heartbeat(status="stopped")
            if self._owns_store and self.store is not None:
                self.store.close()
                self.store = None


def run_service(config: ServeConfig, max_ticks: int | None = None) -> int:
    """Run one :class:`GuardService` with graceful signal handling.

    The service runs under its own telemetry session so the socket's
    ``metrics`` op always has a live registry to export.  SIGTERM /
    SIGINT unwind through the service's cleanup (heartbeat stamped,
    store closed, socket removed) and map to the conventional
    ``128 + signum`` exit code; a natural stop returns 0.
    """
    service = GuardService(config)
    try:
        with telemetry.session(run_id=config.run_id):
            with handle_termination():
                return service.run(max_ticks=max_ticks)
    except TerminationSignal as sig:
        return sig.exit_code


def _service_child(config: ServeConfig, max_ticks: int | None = None):
    """Supervisor child entry point (module-level, hence picklable)."""
    sys.exit(run_service(config, max_ticks=max_ticks))  # pragma: no cover
