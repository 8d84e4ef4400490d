"""Workload-drift detection for recommendation guarding.

A Mnemo recommendation is built from one planning trace; production
workloads do not stand still.  ARMS-style tiering robustness work shows
that the dangerous failure mode is not a bad plan but a *stale* one —
the hot set rotates, objects grow, keys churn, and a placement that was
optimal silently starts missing its SLO.

This module provides streaming detectors that compare a live request
stream against the planning trace's reference profile along three axes:

- **hotness divergence** — Jensen-Shannon (or Kullback-Leibler)
  divergence between the per-key access-mass distributions.  JS is
  symmetric, bounded in ``[0, 1]`` (base-2), and monotone under hot-set
  rotation, which makes threshold selection sane;
- **key churn** — the fraction of the live hot set that was not hot at
  planning time (hot = the top keys carrying ``top_fraction`` of the
  key space);
- **size shift** — relative change of the request-weighted mean object
  size, which moves the capacity a given key prefix actually needs.

Each metric has a *warn* and an *act* threshold
(:class:`DriftThresholds`).  The bundle of signals folds into a
:class:`ReplanAdvice` — ``keep`` / ``widen_margin`` / ``reprofile`` —
which is what the closed guard loop (:mod:`repro.guard.loop`) and the
``mnemo guard`` CLI act on.

Unlike :mod:`repro.core.drift` — which diagnoses *intra-trace* drift
(does the hot set move within one trace?) — this module compares *two*
observations of a workload: the one the plan was built on and the one
production is serving now.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, GuardError
from repro.ycsb.workload import Trace

#: Smoothing mass added to empty bins before a KL ratio (keeps KL finite
#: when the live stream touches a key the reference never saw).
KL_EPSILON = 1e-12


def _as_probs(mass: np.ndarray) -> np.ndarray:
    """Normalise a non-negative mass vector to a probability vector."""
    mass = np.asarray(mass, dtype=np.float64)
    if mass.ndim != 1 or mass.size == 0:
        raise ConfigurationError("access mass must be a non-empty 1-D array")
    if (mass < 0).any():
        raise ConfigurationError("access mass must be non-negative")
    total = mass.sum()
    if total <= 0:
        raise ConfigurationError("access mass is all zero")
    return mass / total


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Kullback-Leibler divergence ``KL(p || q)`` in bits.

    Both inputs are access-mass vectors over the same key space; they
    are normalised internally.  Zero bins of *q* are smoothed with
    :data:`KL_EPSILON` so the divergence stays finite when the live
    stream concentrates on keys the reference barely touched.
    """
    p = _as_probs(p)
    q = _as_probs(q)
    if p.shape != q.shape:
        raise GuardError(
            f"distributions cover different key spaces: {p.size} vs {q.size}"
        )
    q = np.maximum(q, KL_EPSILON)
    mask = p > 0
    return float(np.sum(p[mask] * np.log2(p[mask] / q[mask])))


def js_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen-Shannon divergence in bits — symmetric, bounded in [0, 1].

    ``JS(p, q) = KL(p || m)/2 + KL(q || m)/2`` with ``m = (p + q)/2``.
    Zero for identical distributions, 1 for disjoint supports.
    """
    p = _as_probs(p)
    q = _as_probs(q)
    if p.shape != q.shape:
        raise GuardError(
            f"distributions cover different key spaces: {p.size} vs {q.size}"
        )
    m = 0.5 * (p + q)

    def _kl_to_mid(a: np.ndarray) -> float:
        mask = a > 0
        return float(np.sum(a[mask] * np.log2(a[mask] / m[mask])))

    return 0.5 * _kl_to_mid(p) + 0.5 * _kl_to_mid(q)


def hot_set_churn(
    ref_mass: np.ndarray, live_mass: np.ndarray, top_fraction: float = 0.1,
) -> float:
    """Fraction of the live hot set that was not hot at planning time.

    The hot set is the ``top_fraction`` of keys by access mass (ties
    broken by key id, so the metric is deterministic).  0 means the hot
    keys are exactly the planned ones; 1 means a complete rotation.
    """
    if not 0 < top_fraction <= 1:
        raise ConfigurationError(
            f"top_fraction must be in (0, 1], got {top_fraction}"
        )
    ref_mass = np.asarray(ref_mass, dtype=np.float64)
    live_mass = np.asarray(live_mass, dtype=np.float64)
    if ref_mass.shape != live_mass.shape:
        raise GuardError(
            "reference and live mass cover different key spaces: "
            f"{ref_mass.size} vs {live_mass.size}"
        )
    k = max(1, int(round(top_fraction * ref_mass.size)))
    ref_top = set(np.argsort(-ref_mass, kind="stable")[:k].tolist())
    live_top = np.argsort(-live_mass, kind="stable")[:k]
    stayed = sum(1 for key in live_top.tolist() if key in ref_top)
    return 1.0 - stayed / k


def size_shift(ref_mean_bytes: float, live_mean_bytes: float) -> float:
    """Relative change of the request-weighted mean object size."""
    if ref_mean_bytes <= 0:
        raise ConfigurationError(
            f"reference mean size must be positive, got {ref_mean_bytes}"
        )
    return abs(live_mean_bytes - ref_mean_bytes) / ref_mean_bytes


def rotate_hot_set(trace: Trace, shift: int) -> Trace:
    """A copy of *trace* with every key id rotated by *shift* (mod n).

    The canonical drift stressor: the request histogram is rolled
    through the key space, so keys that were hot at planning time go
    cold and previously cold keys inherit their load.  Record sizes
    stay keyed by id, so a size-heterogeneous dataset also shifts its
    request-weighted mean size.
    """
    n = trace.n_keys
    return Trace(
        name=f"{trace.name}+rot{shift % n}",
        keys=(trace.keys + int(shift)) % n,
        is_read=trace.is_read,
        record_sizes=trace.record_sizes,
    )


@dataclass(frozen=True)
class DriftThresholds:
    """Warn/act thresholds for the three drift metrics.

    The defaults are calibrated on the Table III workloads: a hotspot
    workload resampled with a fresh seed stays below every warn level,
    while rotating its hot set by its own width trips every act level.
    """

    divergence_warn: float = 0.05
    divergence_act: float = 0.20
    churn_warn: float = 0.10
    churn_act: float = 0.40
    size_warn: float = 0.10
    size_act: float = 0.25

    def __post_init__(self) -> None:
        for metric in ("divergence", "churn", "size"):
            warn = getattr(self, f"{metric}_warn")
            act = getattr(self, f"{metric}_act")
            if not 0 <= warn <= act:
                raise ConfigurationError(
                    f"{metric} thresholds must satisfy 0 <= warn <= act, "
                    f"got warn={warn} act={act}"
                )


@dataclass(frozen=True)
class DriftSignal:
    """One drift metric's value against its warn/act thresholds."""

    metric: str
    value: float
    warn: float
    act: float

    @property
    def level(self) -> str:
        """``"ok"``, ``"warn"`` or ``"act"``."""
        if self.value >= self.act:
            return "act"
        if self.value >= self.warn:
            return "warn"
        return "ok"

    def describe(self) -> str:
        """One-line human-readable rendering."""
        return (
            f"{self.metric:<12} {self.value:.3f} "
            f"(warn {self.warn:.2f} / act {self.act:.2f}) -> {self.level}"
        )


@dataclass(frozen=True)
class ReplanAdvice:
    """What the operator (or the closed loop) should do about the plan.

    ``action`` is one of

    - ``"keep"`` — the live workload matches the planning trace; the
      recommendation stands;
    - ``"widen_margin"`` — drift is noticeable but moderate: keep the
      placement, but tighten the effective SLO slack
      (:class:`repro.guard.margin.MarginPolicy`) so the plan carries
      headroom against further movement;
    - ``"reprofile"`` — the live workload no longer resembles the
      planning trace; re-run the full profiling pipeline.
    """

    action: str
    reason: str
    signals: tuple[DriftSignal, ...] = field(default=())

    @property
    def keep(self) -> bool:
        """True when no intervention is advised."""
        return self.action == "keep"


@dataclass(frozen=True)
class WorkloadDriftReport:
    """Drift diagnosis of a live stream against a planning reference."""

    workload: str
    signals: tuple[DriftSignal, ...]
    n_live_requests: int

    @property
    def level(self) -> str:
        """The worst signal level: ``"ok"``, ``"warn"`` or ``"act"``."""
        levels = [s.level for s in self.signals]
        if "act" in levels:
            return "act"
        if "warn" in levels:
            return "warn"
        return "ok"

    @property
    def advice(self) -> ReplanAdvice:
        """The replanning action the signal bundle implies."""
        tripped = [s for s in self.signals if s.level != "ok"]
        if self.level == "act":
            worst = max(tripped, key=lambda s: s.value / s.act)
            return ReplanAdvice(
                action="reprofile",
                reason=(
                    f"{worst.metric} {worst.value:.3f} crossed its act "
                    f"threshold {worst.act:.2f}; the planning trace no "
                    "longer describes the live workload"
                ),
                signals=self.signals,
            )
        if self.level == "warn":
            names = ", ".join(s.metric for s in tripped)
            return ReplanAdvice(
                action="widen_margin",
                reason=(
                    f"{names} above warn level: keep the placement but "
                    "carry extra SLO headroom against further drift"
                ),
                signals=self.signals,
            )
        return ReplanAdvice(
            action="keep",
            reason="live workload matches the planning trace",
            signals=self.signals,
        )

    def lines(self) -> list[str]:
        """Human-readable signal table plus the advice."""
        out = [s.describe() for s in self.signals]
        advice = self.advice
        out.append(f"advice: {advice.action} ({advice.reason})")
        return out


class DriftDetector:
    """Streaming drift detector over a planning reference.

    Feed it the live request stream in chunks (:meth:`observe` /
    :meth:`observe_trace`) — it accumulates per-key access mass and
    size mass incrementally, so a day's worth of requests can be
    checked without materialising them as one trace.  :meth:`report`
    compares the accumulated live profile against the reference.

    Parameters
    ----------
    reference:
        The planning trace (or any trace over the same key space).
    thresholds:
        Warn/act levels; defaults to :class:`DriftThresholds`.
    top_fraction:
        Hot-set width for the churn metric.
    """

    def __init__(
        self,
        reference: Trace,
        thresholds: DriftThresholds | None = None,
        top_fraction: float = 0.1,
    ):
        if not 0 < top_fraction <= 1:
            raise ConfigurationError(
                f"top_fraction must be in (0, 1], got {top_fraction}"
            )
        self.thresholds = thresholds if thresholds is not None else DriftThresholds()
        self.top_fraction = top_fraction
        self.workload = reference.name
        self.n_keys = reference.n_keys
        self._ref_sizes = reference.record_sizes
        self._ref_mass = reference.access_counts().astype(np.float64)
        self._ref_mean_size = float(
            reference.record_sizes[reference.keys].mean()
        )
        self._live_mass = np.zeros(self.n_keys, dtype=np.float64)
        self._live_size_sum = 0.0
        self._live_requests = 0

    # -- streaming ingestion ------------------------------------------------------

    def observe(
        self, keys: np.ndarray, sizes: np.ndarray | None = None,
    ) -> "DriftDetector":
        """Account a chunk of live requests; returns self for chaining.

        Parameters
        ----------
        keys:
            Key ids of the chunk's requests (dense in the reference's
            key space).
        sizes:
            Optional per-*request* object sizes; defaults to the
            reference dataset's record sizes for the given keys, so a
            stream of bare key ids still feeds the size-shift metric.
        """
        keys = np.asarray(keys, dtype=np.int64)
        if keys.ndim != 1:
            raise ConfigurationError("keys must be a 1-D array")
        if keys.size == 0:
            return self
        if keys.min() < 0 or keys.max() >= self.n_keys:
            raise GuardError(
                f"live stream references keys outside the reference key "
                f"space [0, {self.n_keys})"
            )
        if sizes is None:
            sizes = self._ref_sizes[keys]
        else:
            sizes = np.asarray(sizes, dtype=np.float64)
            if sizes.shape != keys.shape:
                raise ConfigurationError("sizes must align with keys")
        self._live_mass += np.bincount(keys, minlength=self.n_keys)
        self._live_size_sum += float(sizes.sum())
        self._live_requests += keys.size
        return self

    def observe_trace(self, trace: Trace) -> "DriftDetector":
        """Account a whole live trace (its own record sizes apply)."""
        if trace.n_keys != self.n_keys:
            raise GuardError(
                f"live trace key space ({trace.n_keys}) does not match "
                f"the reference ({self.n_keys})"
            )
        return self.observe(trace.keys, trace.record_sizes[trace.keys])

    # -- diagnosis ----------------------------------------------------------------

    @property
    def n_observed(self) -> int:
        """Live requests accounted so far."""
        return self._live_requests

    def report(self) -> WorkloadDriftReport:
        """Compare the accumulated live profile against the reference."""
        if self._live_requests == 0:
            raise GuardError("no live requests observed yet")
        t = self.thresholds
        live_mean = self._live_size_sum / self._live_requests
        signals = (
            DriftSignal(
                metric="divergence",
                value=js_divergence(self._ref_mass, self._live_mass),
                warn=t.divergence_warn,
                act=t.divergence_act,
            ),
            DriftSignal(
                metric="churn",
                value=hot_set_churn(
                    self._ref_mass, self._live_mass, self.top_fraction
                ),
                warn=t.churn_warn,
                act=t.churn_act,
            ),
            DriftSignal(
                metric="size_shift",
                value=size_shift(self._ref_mean_size, live_mean),
                warn=t.size_warn,
                act=t.size_act,
            ),
        )
        return WorkloadDriftReport(
            workload=self.workload,
            signals=signals,
            n_live_requests=self._live_requests,
        )


def detect_drift(
    reference: Trace,
    live: Trace,
    thresholds: DriftThresholds | None = None,
    top_fraction: float = 0.1,
) -> WorkloadDriftReport:
    """One-shot drift diagnosis of a live trace against a reference."""
    detector = DriftDetector(
        reference, thresholds=thresholds, top_fraction=top_fraction
    )
    return detector.observe_trace(live).report()
