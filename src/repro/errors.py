"""Exception hierarchy for the Mnemo reproduction.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with one clause while letting genuine
programming errors (``TypeError``, ``ValueError`` from NumPy, ...) surface.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class CapacityError(ReproError):
    """An allocation did not fit in the requested memory node or slab."""


class AllocationError(ReproError):
    """The address-space allocator could not satisfy a request."""


class KeyNotFoundError(ReproError, KeyError):
    """A GET/DELETE referenced a key that is not present in the store."""


class ConfigurationError(ReproError):
    """Inconsistent or out-of-range configuration parameters."""


class WorkloadError(ReproError):
    """A workload descriptor or trace is malformed."""


class EstimateError(ReproError):
    """The Estimate Engine was asked for something it cannot produce."""


class PlacementError(ReproError):
    """The Placement Engine could not realise the requested tiering."""


class PricingError(ReproError):
    """The VM pricing regression received an unusable catalog."""


class FaultError(ReproError):
    """A fault-injection or resilience failure.

    Raised when an experiment could not be completed despite retries
    (worker death, injected chaos strikes, unrecoverable fault models)
    and by :meth:`~repro.runner.outcome.GridOutcome.raise_if_failed` when a
    sweep finished in degraded mode.
    """


class ExperimentTimeoutError(FaultError, TimeoutError):
    """An experiment exceeded its per-experiment timeout.

    Also a :class:`TimeoutError` so generic timeout handling works; the
    resilient runner retries timed-out experiments up to the retry
    policy's attempt budget before recording them in the
    :class:`~repro.runner.outcome.FailureReport`.
    """


class StoreError(ReproError):
    """The durable SQLite store could not complete an operation.

    Raised when lock contention outlasts the bounded-backoff retry
    budget, when the database file is unusable (a rotted page fails a
    statement), or when a journaled sweep references a run the oplog
    does not know.
    """


class UsageError(ReproError):
    """The command line was invoked with malformed or out-of-range input.

    Carries a message naming the offending option and token so CLI users
    see a one-line diagnosis instead of a traceback from deep inside the
    pipeline.
    """


class GuardError(ReproError):
    """The recommendation guard could not complete a check.

    Raised when validation or drift detection is asked for something
    impossible — e.g. a live trace over a different key space, or a
    fallback search whose every candidate split fails to validate.
    """


class ServiceError(ReproError):
    """The served-advisor request plane could not complete an operation.

    Raised by :class:`~repro.service.client.ServiceClient` when a daemon
    stays unreachable past the retry budget, and by the service itself
    for malformed request-plane configuration.
    """


class DeadlineExceededError(ServiceError, TimeoutError):
    """A served request ran past its deadline.

    Raised at the advisor's cooperative cancellation checkpoints; the
    request plane translates it into a structured
    ``{"ok": false, "error": "deadline_exceeded"}`` response instead of
    letting it kill a worker thread.
    """
