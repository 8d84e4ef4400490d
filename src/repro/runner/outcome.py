"""What a sweep hands back, and how it retries: the runner's value types.

:class:`RetryPolicy` bounds the retry loop; :class:`ExperimentMeta`
records how one experiment was obtained; :class:`ExperimentFailure` /
:class:`FailureReport` explain what a sweep could not complete; and
:class:`GridOutcome` is what :meth:`ExperimentRunner.sweep
<repro.runner.grid.ExperimentRunner.sweep>` returns.  Plain frozen
dataclasses, with no dependency on the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError, FaultError, WorkloadError
from repro.rng import backoff_delay
from repro.ycsb.client import RunResult

#: Errors that retrying cannot fix (bad inputs, not transient faults).
NON_RETRYABLE = (ConfigurationError, WorkloadError)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    Parameters
    ----------
    max_attempts:
        Attempts per experiment (1 = no retries).
    backoff_base_s / backoff_factor:
        Sleep before retry *k* (1-based) is
        ``backoff_base_s * backoff_factor**(k - 1)``, scaled by jitter.
    jitter:
        Relative jitter width added on top of the exponential backoff.
        Derived from a hash of (label, attempt) rather than wall-clock
        entropy, so resilience behaviour is as replayable as the
        measurements themselves.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base_s < 0 or self.backoff_factor < 1:
            raise ConfigurationError(
                "backoff_base_s must be >= 0 and backoff_factor >= 1"
            )
        if self.jitter < 0:
            raise ConfigurationError(f"jitter must be >= 0, got {self.jitter}")

    def backoff_s(self, attempt: int, label: str = "") -> float:
        """Sleep before retry *attempt* (1-based), jittered."""
        return backoff_delay(
            f"{label}/backoff/{attempt}", attempt,
            self.backoff_base_s, self.backoff_factor, jitter=self.jitter,
        )


@dataclass(frozen=True)
class ExperimentFailure:
    """One experiment a sweep could not complete."""

    label: str
    error: str
    message: str
    attempts: int

    def __str__(self) -> str:
        return (
            f"{self.label}: {self.error}: {self.message} "
            f"({self.attempts} attempt{'s' if self.attempts != 1 else ''})"
        )


@dataclass(frozen=True)
class FailureReport:
    """Structured record of everything a sweep failed to complete."""

    failures: tuple[ExperimentFailure, ...] = ()

    @property
    def ok(self) -> bool:
        """True when the sweep completed every experiment."""
        return not self.failures

    def __len__(self) -> int:
        return len(self.failures)

    def summary(self) -> str:
        """Multi-line human-readable account of the failures."""
        if self.ok:
            return "all experiments completed"
        lines = [f"{len(self.failures)} experiment(s) failed:"]
        lines += [f"  - {f}" for f in self.failures]
        return "\n".join(lines)


@dataclass(frozen=True)
class ExperimentMeta:
    """How one experiment was obtained (not *what* it measured).

    ``provenance`` is ``"cache"`` (recalled from the result cache),
    ``"computed"`` (measured fresh through the simulator),
    ``"uncached"`` (measured with no cache configured) or ``"journal"``
    (restored from a sweep journal checkpoint on resume).  ``duration_s``
    is the experiment's wall-clock time in the process that ran it.
    """

    label: str
    duration_s: float
    provenance: str


@dataclass(frozen=True)
class GridOutcome:
    """What a resilient sweep produced.

    ``results`` preserves spec order, with ``None`` at the slots of
    failed experiments; ``report`` explains every ``None``; ``metas``
    (parallel to ``results``) records each experiment's wall-clock
    duration and cache provenance.  ``elapsed_s`` is the sweep's elapsed
    wall clock, which also counts what no experiment's duration does:
    trace generation, journal recalls and retry backoff.
    """

    results: tuple[RunResult | None, ...]
    report: FailureReport = field(default_factory=FailureReport)
    metas: tuple[ExperimentMeta | None, ...] = ()
    elapsed_s: float = 0.0

    @property
    def completed(self) -> list[RunResult]:
        """The successful results, in spec order."""
        return [r for r in self.results if r is not None]

    @property
    def ok(self) -> bool:
        """True when every experiment completed."""
        return self.report.ok

    @property
    def durations(self) -> tuple[float | None, ...]:
        """Per-experiment wall-clock seconds, in spec order."""
        return tuple(
            m.duration_s if m is not None else None for m in self.metas
        )

    @property
    def provenance(self) -> tuple[str | None, ...]:
        """Per-experiment cache provenance, in spec order."""
        return tuple(
            m.provenance if m is not None else None for m in self.metas
        )

    def summary(self) -> str:
        """Human-readable account: completion, timing, provenance."""
        n = len(self.results)
        done = len(self.completed)
        lines = [f"completed {done}/{n} experiment(s)"]
        metas = [m for m in self.metas if m is not None]
        if metas:
            total = sum(m.duration_s for m in metas)
            counts: dict[str, int] = {}
            for m in metas:
                counts[m.provenance] = counts.get(m.provenance, 0) + 1
            mix = ", ".join(
                f"{counts[k]} {k}" for k in sorted(counts)
            )
            lines.append(f"compute: {total:.3f}s aggregate ({mix})")
            resumed = counts.get("journal", 0)
            if resumed:
                lines.append(
                    f"resume: {resumed} resumed from journal, "
                    f"{len(metas) - resumed} fresh"
                )
            if self.elapsed_s > 0:
                lines.append(f"wall clock: {self.elapsed_s:.3f}s elapsed")
            slowest = max(metas, key=lambda m: m.duration_s)
            lines.append(
                f"slowest: {slowest.label} "
                f"({slowest.duration_s:.3f}s, {slowest.provenance})"
            )
        if not self.report.ok:
            lines.append(self.report.summary())
        return "\n".join(lines)

    def raise_if_failed(self) -> "GridOutcome":
        """Raise :class:`~repro.errors.FaultError` on any failure."""
        if not self.report.ok:
            raise FaultError(self.report.summary())
        return self
