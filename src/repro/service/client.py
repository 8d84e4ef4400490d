"""Resilient client for the served-advisor control socket.

:func:`~repro.service.serve.control_call` is one attempt; a real client
needs more, because a healthy daemon legitimately answers with
transient failures — ``overloaded`` when the admission queue is full,
a connection error during the short window of a supervisor restart.
:class:`ServiceClient` wraps the call in a bounded retry loop:

- **bounded exponential backoff** — attempt *k* waits
  ``min(base * factor**(k-1), cap)`` seconds, scaled by deterministic
  jitter (:func:`~repro.rng.backoff_delay`, the formula every
  backoff in this codebase uses, so two clients with different labels
  desynchronise but a given client retries reproducibly);
- **server-directed pacing** — a shed response carries the daemon's
  own ``retry_after_s`` estimate, which overrides the client's
  schedule when longer (the server knows its queue better);
- **a hard attempt budget** — after ``max_attempts`` the client raises
  :class:`~repro.errors.ServiceError` with the last failure, rather
  than retrying forever against a dead daemon.

Both consumers of the socket go through this module: the CLI's
``mnemo serve --control`` path and the
:class:`~repro.service.supervisor.Supervisor`'s graceful-shutdown
probe.  :func:`diagnose_unreachable` turns a refused connection into
an honest liveness story by reading the heartbeat file: *never
started*, *stopped gracefully*, or *dead since <mtime>*.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

from repro import telemetry
from repro.errors import ConfigurationError, ServiceError
from repro.rng import backoff_delay
from repro.service.serve import control_call

#: Response errors worth retrying: the daemon is alive but busy.
RETRYABLE_ERRORS = ("overloaded",)


@dataclass(frozen=True)
class ClientPolicy:
    """Retry discipline for one :class:`ServiceClient`.

    Parameters
    ----------
    max_attempts:
        Total tries (first attempt included) before giving up.
    backoff_base_s / backoff_factor / backoff_cap_s:
        Attempt *k* (1-based) retries after
        ``min(backoff_base_s * backoff_factor**(k-1), backoff_cap_s)``
        seconds, scaled by deterministic jitter.
    timeout_s:
        Socket timeout per attempt (connect + response read).
    """

    max_attempts: int = 4
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap_s: float = 2.0
    timeout_s: float = 10.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base_s < 0 or self.backoff_factor < 1:
            raise ConfigurationError(
                "backoff_base_s must be >= 0 and backoff_factor >= 1"
            )
        if self.backoff_cap_s < 0 or self.timeout_s <= 0:
            raise ConfigurationError(
                "backoff_cap_s must be >= 0 and timeout_s positive"
            )

    def backoff_s(self, attempt: int, label: str = "") -> float:
        """Sleep before retrying after attempt *attempt* (1-based)."""
        return backoff_delay(
            f"{label}/attempt/{attempt}", attempt,
            self.backoff_base_s, self.backoff_factor,
            cap_s=self.backoff_cap_s,
        )


class ServiceClient:
    """Control-socket caller with bounded, jittered retries.

    Parameters
    ----------
    socket_path:
        The daemon's unix control socket.
    token:
        Auth token attached to every request (None while the daemon
        runs in open bootstrap mode).
    policy:
        The :class:`ClientPolicy` in force.
    label:
        Name folded into the jitter derivation, so concurrent clients
        spread their retries instead of stampeding in lockstep.
    """

    def __init__(self, socket_path, token: str | None = None,
                 policy: ClientPolicy = ClientPolicy(),
                 label: str = "client"):
        self.socket_path = Path(socket_path)
        self.token = token
        self.policy = policy
        self.label = label
        self.attempts = 0

    def call(self, op: str, **fields) -> dict:
        """Send one op, retrying transient failures; returns the reply.

        Retries connection-level errors (daemon restarting) and
        ``overloaded`` sheds (honouring the server's ``retry_after_s``
        when it is longer than the client's own schedule).  Any other
        reply — including structured errors like ``unauthorized`` or
        ``deadline_exceeded`` — is returned to the caller as-is; only
        an exhausted retry budget raises :class:`ServiceError`.
        """
        request = {"op": op, **fields}
        if self.token is not None:
            request.setdefault("token", self.token)
        last_failure = "no attempts made"
        for attempt in range(1, self.policy.max_attempts + 1):
            self.attempts = attempt
            try:
                response = control_call(
                    self.socket_path, request, timeout=self.policy.timeout_s,
                )
            except (OSError, ValueError, json.JSONDecodeError) as exc:
                last_failure = f"{type(exc).__name__}: {exc}"
                telemetry.count("client.connect_failures", op=op)
                wait = self.policy.backoff_s(attempt, label=self.label)
            else:
                if response.get("ok") or (
                    response.get("error") not in RETRYABLE_ERRORS
                ):
                    return response
                last_failure = f"server shed the request: {response}"
                telemetry.count("client.sheds", op=op)
                wait = max(
                    self.policy.backoff_s(attempt, label=self.label),
                    float(response.get("retry_after_s", 0.0)),
                )
            if attempt < self.policy.max_attempts:
                telemetry.count("client.retries", op=op)
                time.sleep(wait)
        raise ServiceError(
            f"{op!r} failed after {self.policy.max_attempts} attempts "
            f"against {self.socket_path}: {last_failure}"
        )


def diagnose_unreachable(socket_path, heartbeat_path, error) -> str:
    """Explain an unreachable daemon from its heartbeat file.

    Turns a bare connection error into the liveness story an operator
    actually needs: the daemon *never started* (no heartbeat), *stopped
    gracefully* (heartbeat stamped ``stopped``), or *died* (heartbeat
    says running but nobody answers — report how stale it is).
    """
    socket_path = Path(socket_path)
    heartbeat_path = Path(heartbeat_path)
    base = f"no service listening on {socket_path}"
    try:
        raw = heartbeat_path.read_text(encoding="utf-8")
        doc = json.loads(raw)
    except (OSError, json.JSONDecodeError):
        return (
            f"{base}: no heartbeat at {heartbeat_path} — "
            f"the service was never started here ({error})"
        )
    mtime = heartbeat_path.stat().st_mtime
    when = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(mtime))
    if doc.get("status") == "stopped":
        return (
            f"{base}: the service (pid {doc.get('pid')}) stopped "
            f"gracefully at {when} after {doc.get('ticks', 0)} ticks"
        )
    age = max(0.0, time.time() - mtime)
    return (
        f"{base}: heartbeat says pid {doc.get('pid')} was "
        f"{doc.get('status', 'running')} but nothing answers — daemon "
        f"dead since {when} ({age:.0f}s ago, {doc.get('ticks', 0)} ticks "
        f"served); a supervisor may be restarting it ({error})"
    )
