"""The request plane: deadlines, admission control, and token auth.

``mnemo serve`` answers advice requests (``size`` / ``validate`` /
``drift``) from many concurrent clients.  Serving advice is orders of
magnitude heavier than answering ``ping``, so the heavy ops run behind
an explicit robustness envelope built from three small primitives:

- :class:`Deadline` — a monotonic-clock budget each request carries.
  Advisor code calls :meth:`Deadline.check` at its cancellation
  checkpoints; an expired budget raises
  :class:`~repro.errors.DeadlineExceededError`, which the plane
  translates into a structured ``deadline_exceeded`` response instead
  of burning a worker on an answer nobody is waiting for.
- :class:`RequestPlane` — a bounded worker pool behind a bounded
  admission queue.  When the queue is full the request is *shed*
  immediately with ``{"ok": false, "error": "overloaded"}`` and a
  ``retry_after_s`` hint derived from the observed service time — the
  client backs off (:mod:`repro.service.client`) instead of piling onto
  a saturated daemon (load shedding, not unbounded queueing).
- :class:`AuthRegistry` — SHA-256 token digests with constant-time
  comparison.  The registry journals nothing itself; the service
  appends ``auth_token_registered`` / ``auth_token_revoked`` oplog
  entries (digests only, never raw tokens) and
  :meth:`AuthRegistry.replay` rebuilds the registry from that journal
  after a restart.  A registry with no tokens is *open* (single-tenant
  bootstrap); registering the first token locks every op but ``ping``.

Everything here is deliberately free of advisor knowledge — the plane
runs closures, the registry compares digests — so the pieces are
testable in microseconds and reusable by future fleet endpoints.
"""

from __future__ import annotations

import hashlib
import hmac
import queue
import threading
import time

from repro import telemetry
# the field checks live with the advice request they validate
from repro.core.advice import is_real, is_whole, require  # noqa: F401
from repro.errors import ConfigurationError, DeadlineExceededError

#: Extra seconds an I/O thread waits past a request's deadline for the
#: worker to deliver the structured deadline response itself.
COMPLETION_GRACE_S = 2.0

#: Minimum accepted auth-token length (shorter tokens are typos).
MIN_TOKEN_LENGTH = 8

#: Floor for the ``retry_after_s`` hint in shed responses.
MIN_RETRY_AFTER_S = 0.05


class Deadline:
    """A monotonic-clock budget with cooperative cancellation checks.

    Parameters
    ----------
    budget_s:
        Seconds from construction until the deadline expires.
    """

    __slots__ = ("budget_s", "_expires")

    def __init__(self, budget_s: float):
        if budget_s <= 0:
            raise ConfigurationError(
                f"deadline budget must be positive, got {budget_s}"
            )
        self.budget_s = float(budget_s)
        self._expires = time.monotonic() + self.budget_s

    def remaining(self) -> float:
        """Seconds left before expiry (never negative)."""
        return max(0.0, self._expires - time.monotonic())

    @property
    def expired(self) -> bool:
        """True once the budget is spent."""
        return time.monotonic() >= self._expires

    def check(self, where: str = "") -> None:
        """Cooperative cancellation point: raise when expired.

        Advisor code calls this between expensive stages; *where* names
        the checkpoint in the error (and the structured response).
        """
        if self.expired:
            telemetry.count("serve.deadline_exceeded", where=where or "-")
            raise DeadlineExceededError(
                f"deadline ({self.budget_s:g}s) exceeded"
                + (f" at {where}" if where else "")
            )


def token_digest(token: str) -> str:
    """SHA-256 hex digest of a raw token (what the oplog records)."""
    return hashlib.sha256(token.encode("utf-8")).hexdigest()


class AuthRegistry:
    """Registered token digests with constant-time authorization.

    The registry stores SHA-256 digests only; raw tokens never touch
    memory longer than one call.  An empty registry authorizes everyone
    (bootstrap mode) — registering the first token flips the service to
    locked-down multi-tenant operation.
    """

    def __init__(self) -> None:
        self._digests: set[str] = set()
        self._lock = threading.Lock()

    @property
    def active(self) -> bool:
        """True once at least one token is registered (auth enforced)."""
        with self._lock:
            return bool(self._digests)

    @property
    def n_tokens(self) -> int:
        """How many tokens are currently registered."""
        with self._lock:
            return len(self._digests)

    def register(self, token: str) -> str:
        """Register a raw token; returns the digest the oplog records."""
        if not isinstance(token, str) or len(token) < MIN_TOKEN_LENGTH:
            raise ConfigurationError(
                f"tokens must be strings of >= {MIN_TOKEN_LENGTH} characters"
            )
        digest = token_digest(token)
        with self._lock:
            self._digests.add(digest)
        return digest

    def revoke_digest(self, digest: str) -> bool:
        """Remove a token by digest; True when it was registered."""
        with self._lock:
            try:
                self._digests.remove(digest)
                return True
            except KeyError:
                return False

    def revoke(self, token: str) -> bool:
        """Remove a raw token; True when it was registered."""
        return self.revoke_digest(token_digest(str(token)))

    def authorize(self, token: str | None) -> bool:
        """Constant-time check of a presented token.

        Every registered digest is compared (no early exit on a match),
        so response timing leaks neither membership nor prefix length.
        An inactive registry authorizes any caller.
        """
        with self._lock:
            digests = tuple(self._digests)
        if not digests:
            return True
        if not isinstance(token, str) or not token:
            return False
        presented = token_digest(token)
        ok = False
        for digest in digests:
            ok |= hmac.compare_digest(presented, digest)
        return ok

    @classmethod
    def replay(cls, oplog, run_id: str) -> "AuthRegistry":
        """Rebuild a registry from journaled register/revoke events.

        Folds the run's ``auth_token_registered`` /
        ``auth_token_revoked`` oplog entries in append order, so the
        registry survives daemon restarts without persisting tokens
        anywhere but the audit trail.
        """
        from repro.store.oplog import (
            KIND_TOKEN_REGISTERED, KIND_TOKEN_REVOKED,
        )

        registry = cls()
        for entry in oplog.entries(run_id=run_id):
            digest = entry.payload.get("token_sha256")
            if not digest:
                continue
            if entry.kind == KIND_TOKEN_REGISTERED:
                registry._digests.add(digest)
            elif entry.kind == KIND_TOKEN_REVOKED:
                registry._digests.discard(digest)
        return registry


class _Job:
    """One queued request: the closure, its deadline, and the rendezvous."""

    __slots__ = ("op", "fn", "deadline", "done", "response", "abandoned")

    def __init__(self, op: str, fn, deadline: Deadline):
        self.op = op
        self.fn = fn
        self.deadline = deadline
        self.done = threading.Event()
        self.response: dict | None = None
        self.abandoned = False


def shed_response(op: str, retry_after_s: float, queue_depth: int) -> dict:
    """The structured load-shedding reply (documented in docs/SERVE.md)."""
    return {
        "ok": False,
        "op": op,
        "error": "overloaded",
        "retry_after_s": round(retry_after_s, 3),
        "queue_depth": queue_depth,
    }


def deadline_response(op: str, budget_s: float, where: str = "") -> dict:
    """The structured deadline-exceeded reply."""
    body = {
        "ok": False,
        "op": op,
        "error": "deadline_exceeded",
        "deadline_s": round(budget_s, 3),
    }
    if where:
        body["where"] = where
    return body


class RequestPlane:
    """Bounded worker pool with admission control and load shedding.

    Parameters
    ----------
    workers:
        Worker threads executing advice requests.
    queue_depth:
        Admission-queue capacity; a submit against a full queue sheds
        immediately instead of queueing unboundedly.
    name:
        Thread-name prefix (diagnostics).
    """

    def __init__(self, workers: int = 2, queue_depth: int = 8,
                 name: str = "serve"):
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if queue_depth < 1:
            raise ConfigurationError(
                f"queue_depth must be >= 1, got {queue_depth}"
            )
        self.workers = workers
        self.queue_depth = queue_depth
        self.name = name
        self._queue: queue.Queue = queue.Queue(maxsize=queue_depth)
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._avg_service_s = 0.1  # EWMA seed; refined by real requests
        self._closed = False

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "RequestPlane":
        """Spin up the worker threads (idempotent)."""
        with self._lock:
            if self._threads:
                return self
            self._closed = False
            for i in range(self.workers):
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"{self.name}-worker-{i}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)
        return self

    def close(self, timeout_s: float = 5.0) -> None:
        """Stop accepting work and join the workers (idempotent)."""
        with self._lock:
            threads, self._threads = self._threads, []
            self._closed = True
        for _ in threads:
            try:
                self._queue.put_nowait(None)  # one sentinel per worker
            except queue.Full:  # pragma: no cover - drained by workers
                pass
        for thread in threads:
            thread.join(timeout=timeout_s)

    # -- admission -------------------------------------------------------------

    def retry_after_s(self) -> float:
        """Backoff hint for shed clients: queue drain time at current rate."""
        with self._lock:
            avg = self._avg_service_s
        depth = self._queue.qsize()
        return max(MIN_RETRY_AFTER_S, (depth + 1) * avg / self.workers)

    def submit(self, op: str, fn, deadline: Deadline) -> dict:
        """Run *fn* on a worker; returns its response (or a shed/deadline one).

        *fn* is a zero-argument callable returning a response dict; it
        is expected to call ``deadline.check()`` at its own checkpoints.
        The calling I/O thread blocks until the worker answers or the
        deadline (plus a small grace) passes — whichever comes first.
        """
        if self._closed:
            return {"ok": False, "op": op, "error": "shutting_down"}
        job = _Job(op, fn, deadline)
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            telemetry.count("serve.shed", op=op)
            return shed_response(op, self.retry_after_s(), self.queue_depth)
        telemetry.gauge("serve.queue_depth", float(self._queue.qsize()))
        if job.done.wait(timeout=deadline.remaining() + COMPLETION_GRACE_S):
            return job.response  # type: ignore[return-value]
        # the worker is wedged past the grace period: abandon the job
        job.abandoned = True
        telemetry.count("serve.deadline_exceeded", where="abandoned")
        return deadline_response(op, deadline.budget_s, where="abandoned")

    # -- the workers -----------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:  # close() sentinel
                return
            telemetry.gauge("serve.queue_depth", float(self._queue.qsize()))
            if job.deadline.expired:
                # it aged out while queued; don't burn compute on it
                telemetry.count("serve.deadline_exceeded", where="queued")
                job.response = deadline_response(
                    job.op, job.deadline.budget_s, where="queued",
                )
                job.done.set()
                continue
            t0 = time.perf_counter()
            try:
                response = job.fn()
            except DeadlineExceededError as exc:
                response = deadline_response(
                    job.op, job.deadline.budget_s, where=str(exc),
                )
            except Exception as exc:  # noqa: BLE001 - a request must never
                # kill a worker thread; the advisor wrapper normally
                # degrades gracefully before this backstop is reached
                telemetry.count("serve.worker_errors", op=job.op)
                response = {
                    "ok": False, "op": job.op,
                    "error": "internal_error", "detail": str(exc),
                }
            elapsed = time.perf_counter() - t0
            with self._lock:
                self._avg_service_s = (
                    0.8 * self._avg_service_s + 0.2 * elapsed
                )
            if not job.abandoned:
                job.response = response
                job.done.set()
