"""Cooperative termination: SIGTERM/SIGINT as a catchable control flow.

Long-running commands (``mnemo sweep``, ``mnemo serve``) own resources
that must be released on the way out — an open store, the daemon's
socket.  A bare SIGTERM would skip every
``finally`` block; :func:`handle_termination` converts it (and SIGINT)
into a :class:`TerminationSignal` raised at the next bytecode boundary,
so the normal unwind runs ``store.close()`` and
the process can exit with the conventional ``128 + signum`` code.

:class:`TerminationSignal` derives from :class:`BaseException` — like
``KeyboardInterrupt`` — so ``except Exception`` recovery paths (retry
loops, salvage collection) never swallow a shutdown request.

Signal handlers can only be installed from the main thread; from any
other thread (or under a test harness that owns the handlers) the
context manager degrades to a no-op rather than failing.
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager

#: The signals a service shutdown may arrive on.
TERMINATION_SIGNALS = (signal.SIGTERM, signal.SIGINT)


class TerminationSignal(BaseException):
    """A termination signal arrived; unwind, release, and exit.

    ``signum`` names the signal so the CLI can exit ``128 + signum``
    (143 for SIGTERM, 130 for SIGINT) the way shells expect.
    """

    def __init__(self, signum: int):
        self.signum = int(signum)
        super().__init__(f"received {signal.Signals(signum).name}")

    @property
    def exit_code(self) -> int:
        """The conventional shell exit code for this signal."""
        return 128 + self.signum


@contextmanager
def handle_termination(*signums: int):
    """Raise :class:`TerminationSignal` on SIGTERM/SIGINT inside the block.

    Only the *first* signal raises: repeated deliveries (a supervisor
    nudging an already-unwinding child, an operator's double ctrl-C)
    are ignored so they cannot abort the cleanup the first one started.

    Previous handlers are restored on exit, so nesting and test
    harnesses behave.  Outside the main thread the block runs with the
    process's existing handlers (installing would raise ``ValueError``).
    """
    signums = signums or TERMINATION_SIGNALS
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    fired = []

    def _raise(signum, frame):  # pragma: no cover - exercised in subprocesses
        if fired:  # already unwinding; let the cleanup finish
            return
        fired.append(signum)
        raise TerminationSignal(signum)

    previous = {}
    try:
        for signum in signums:
            previous[signum] = signal.signal(signum, _raise)
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
