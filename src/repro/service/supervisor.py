"""Crash-restart supervision for the guard service worker.

:class:`Supervisor` runs a target callable in a child process and
restarts it when it dies abnormally — the classic one-for-one
supervision tree leaf.  Restarts back off exponentially (deterministic
jitter, :func:`~repro.rng.backoff_delay` like every other
backoff in the pipeline) so a crash-looping worker cannot busy-spin,
and a child that stays up for ``healthy_s`` earns its restart budget
back, so one bad patch a week does not slowly exhaust the allowance.

The supervisor itself is signal-agnostic: callers stop it with
:meth:`Supervisor.stop` (the CLI wires SIGTERM to that via
:mod:`repro.service.signals`), which forwards SIGTERM to the child and
waits for it to unwind gracefully before escalating to SIGKILL.  When
the child exposes a control socket, the supervisor asks for a graceful
``shutdown`` over it first (via
:class:`~repro.service.client.ServiceClient`), so an in-flight advice
request finishes before the signal ladder starts.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass

from repro import telemetry
from repro.errors import ConfigurationError
from repro.rng import backoff_delay

#: Grace period between SIGTERM and SIGKILL when stopping the child.
STOP_GRACE_S = 5.0


@dataclass(frozen=True)
class RestartPolicy:
    """How a supervisor reacts to its child dying.

    Parameters
    ----------
    max_restarts:
        Abnormal exits tolerated before the supervisor gives up
        (a child that keeps dying is a bug, not an outage to ride out).
    backoff_base_s / backoff_factor / backoff_cap_s:
        Restart *k* (1-based) waits
        ``min(backoff_base_s * backoff_factor**(k-1), backoff_cap_s)``
        seconds, scaled by deterministic jitter.
    healthy_s:
        A child that survives this long resets the restart counter —
        distinguishing a crash loop from occasional unrelated crashes.
    """

    max_restarts: int = 5
    backoff_base_s: float = 0.1
    backoff_factor: float = 2.0
    backoff_cap_s: float = 30.0
    healthy_s: float = 60.0

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ConfigurationError(
                f"max_restarts must be >= 0, got {self.max_restarts}"
            )
        if self.backoff_base_s < 0 or self.backoff_factor < 1:
            raise ConfigurationError(
                "backoff_base_s must be >= 0 and backoff_factor >= 1"
            )
        if self.backoff_cap_s < 0 or self.healthy_s < 0:
            raise ConfigurationError(
                "backoff_cap_s and healthy_s must be >= 0"
            )

    def backoff_s(self, restart: int, label: str = "") -> float:
        """Sleep before restart *restart* (1-based), jittered and capped."""
        return backoff_delay(
            f"{label}/restart/{restart}", restart,
            self.backoff_base_s, self.backoff_factor,
            cap_s=self.backoff_cap_s,
        )


class Supervisor:
    """Runs *target* in a child process, restarting abnormal exits.

    Parameters
    ----------
    target:
        Module-level callable the child runs (must be picklable on
        spawn-based platforms).  A return or ``sys.exit(0)`` is a
        *normal* exit and ends supervision; any non-zero exit code or
        kill signal triggers a backoff restart.
    args:
        Positional arguments for *target*.
    policy:
        The :class:`RestartPolicy` in force.
    name:
        Label for telemetry and backoff derivation.
    control_socket:
        Optional path of the child's control socket; when set, a stop
        request first asks the child for a graceful ``shutdown`` over
        the socket and only escalates to SIGTERM/SIGKILL if the child
        does not unwind in time (or the request is refused — e.g. the
        daemon has auth tokens registered).
    """

    def __init__(
        self,
        target,
        args: tuple = (),
        policy: RestartPolicy = RestartPolicy(),
        name: str = "service",
        control_socket=None,
    ):
        self.target = target
        self.args = tuple(args)
        self.policy = policy
        self.name = name
        self.control_socket = control_socket
        self.restarts = 0
        self._stop = mp.Event()
        self._child: mp.Process | None = None

    # -- control ---------------------------------------------------------------

    def stop(self) -> None:
        """Request shutdown: stop restarting, let the wait loop SIGTERM
        the child (exactly once — a second SIGTERM could interrupt the
        child's graceful unwind)."""
        self._stop.set()

    @property
    def child_pid(self) -> int | None:
        """The live child's pid, or None."""
        child = self._child
        return child.pid if child is not None and child.is_alive() else None

    # -- the supervision loop --------------------------------------------------

    def _spawn(self) -> mp.Process:
        child = mp.Process(
            target=self.target, args=self.args,
            name=f"{self.name}-worker", daemon=False,
        )
        child.start()
        return child

    def _request_graceful_shutdown(self) -> bool:
        """Best-effort ``shutdown`` over the child's control socket.

        Returns True when the child acknowledged; any failure (no
        socket configured, daemon not listening yet, auth refusing an
        unauthenticated supervisor) just means the caller proceeds to
        the SIGTERM/SIGKILL ladder.
        """
        if self.control_socket is None:
            return False
        from repro.errors import ServiceError
        from repro.service.client import ClientPolicy, ServiceClient

        client = ServiceClient(
            self.control_socket,
            policy=ClientPolicy(max_attempts=1, timeout_s=1.0),
            label=f"{self.name}-supervisor",
        )
        try:
            reply = client.call("shutdown")
        except ServiceError:
            return False
        if reply.get("ok"):
            telemetry.event("service.child_shutdown_requested",
                            service=self.name)
            return True
        return False

    def _wait(self, child: mp.Process) -> int:
        """Join *child*, polling the stop flag; returns its exit code."""
        while child.is_alive():
            if self._stop.is_set():
                if self._request_graceful_shutdown():
                    child.join(timeout=STOP_GRACE_S)
                if child.is_alive():
                    child.terminate()
                    child.join(timeout=STOP_GRACE_S)
                if child.is_alive():  # pragma: no cover - stuck handler
                    child.kill()
                    child.join()
                break
            child.join(timeout=0.1)
        child.join()
        return child.exitcode if child.exitcode is not None else 0

    def run(self) -> int:
        """Supervise until normal exit, stop request, or budget exhaustion.

        Returns the child's final exit code (0 when stopped gracefully
        or the child finished cleanly).
        """
        self._stop.clear()
        self.restarts = 0
        code = 0
        while not self._stop.is_set():
            started = time.monotonic()
            self._child = self._spawn()
            telemetry.event(
                "service.child_started", service=self.name,
                pid=self._child.pid, restarts=self.restarts,
            )
            code = self._wait(self._child)
            uptime = time.monotonic() - started
            self._child = None
            if self._stop.is_set() or code == 0:
                break
            # abnormal exit: negative codes are kill signals
            telemetry.count("service.child_deaths")
            telemetry.event(
                "service.child_died", service=self.name,
                exit_code=code, uptime_s=round(uptime, 3),
            )
            if uptime >= self.policy.healthy_s:
                self.restarts = 0  # it earned its budget back
            self.restarts += 1
            if self.restarts > self.policy.max_restarts:
                telemetry.event(
                    "service.gave_up", service=self.name,
                    restarts=self.restarts - 1,
                )
                return code
            backoff = self.policy.backoff_s(self.restarts, label=self.name)
            telemetry.count("service.restarts")
            telemetry.event(
                "service.child_restarting", service=self.name,
                restart=self.restarts, backoff_s=round(backoff, 3),
            )
            # a stop request must cut the backoff short
            self._stop.wait(backoff)
        return 0 if self._stop.is_set() else code
