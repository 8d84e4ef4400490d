"""Service layer: the supervised, observable served advisor.

``mnemo serve`` (see ``docs/SERVE.md``) composes five pieces:

- :mod:`repro.service.signals` — SIGTERM/SIGINT as catchable
  :class:`TerminationSignal` control flow, so every ``finally`` runs;
- :mod:`repro.service.requests` — the request plane: per-request
  :class:`Deadline` budgets, the bounded :class:`RequestPlane` worker
  pool with admission control and load shedding, and the
  :class:`AuthRegistry` of journaled token digests;
- :mod:`repro.service.advisor` — :class:`ServedAdvisor`, the Mnemo
  sizing/validation/drift engine behind the socket ops, bit-identical
  to the CLI one-shots and memoized through the shared store;
- :mod:`repro.service.serve` — :class:`GuardService`, the scheduled
  guard-tick loop with a heartbeat file and the unix-socket control
  API (``ping`` / ``status`` / ``metrics`` / ``size`` / ``validate`` /
  ``drift`` / ``reload`` / ``register`` / ``revoke`` / ``shutdown``);
- :mod:`repro.service.client` — :class:`ServiceClient`, the retrying
  caller (bounded exponential backoff, deterministic jitter,
  server-directed pacing) used by the CLI ``--control`` path and the
  supervisor, plus :func:`diagnose_unreachable` heartbeat forensics;
- :mod:`repro.service.supervisor` — :class:`Supervisor`, the
  crash-restart wrapper with exponential backoff and a restart budget.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "advisor": ["ServedAdvisor"],
    "client": ["ClientPolicy", "ServiceClient", "diagnose_unreachable"],
    "requests": ["AuthRegistry", "Deadline", "RequestPlane", "token_digest"],
    "serve": [
        "ADVICE_OPS", "DEFAULT_RUNDIR", "RELOADABLE_FIELDS", "GuardService",
        "ServeConfig", "control_call", "run_service",
    ],
    "signals": [
        "TERMINATION_SIGNALS", "TerminationSignal", "handle_termination",
    ],
    "supervisor": ["STOP_GRACE_S", "RestartPolicy", "Supervisor"],
})
