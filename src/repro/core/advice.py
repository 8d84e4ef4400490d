"""One advice request: the question every front door asks Mnemo.

A workload, a store, a price factor and an SLO (PAPER.md):
:class:`AdviceRequest` is that question, validated once when built, and
:func:`advise` answers it.  ``profile``, ``guard``, ``compare`` /
``retier``, the daemon's watched config and its ``size`` op all call
:func:`advise`, so socket and CLI answers agree by construction.
Importing this module loads no numpy; :func:`advise` imports what it runs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from importlib import import_module
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.core.mnemo import Mnemo
    from repro.core.report import MnemoReport
    from repro.core.slo import SizingChoice
    from repro.ycsb.workload import Trace

#: ``engine`` name -> (leaf module, class), in the order ``compare``
#: prints them.
ENGINES = {
    "redis": ("repro.kvstore.redislike", "RedisLike"),
    "memcached": ("repro.kvstore.memcachedlike", "MemcachedLike"),
    "dynamodb": ("repro.kvstore.dynamolike", "DynamoLike"),
}

#: ``mode`` values: the tiering order, touch = Mnemo, weight = MnemoT.
MODES = ("touch", "weight")

#: Deadline checkpoint labels (also the ``where`` field of structured
#: ``deadline_exceeded`` responses).
CHECKPOINT_TRACE = "trace"
CHECKPOINT_PROFILE = "profile"


def is_real(value) -> bool:
    """A finite JSON number (``true`` / ``false`` are not numbers)."""
    return (
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and math.isfinite(value)
    )


def is_whole(value) -> bool:
    """A JSON integer (``true`` / ``false`` and ``1.0`` are not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def require(ok, field: str, want: str, got) -> None:
    """Raise the error naming a mistyped or out-of-range *field*.

    The message starts with the field's name, so a door can say it in
    its own vocabulary (the CLI prefixes ``--``).
    """
    if not ok:
        raise ConfigurationError(f"{field} must be {want}, got {got!r:.80}")


def builtin_trace(name: str) -> Trace:
    """Generate the trace of one built-in workload."""
    from repro.ycsb.generator import generate_trace
    from repro.ycsb.presets import workload_by_name

    return generate_trace(workload_by_name(name))


def _is_builtin(name) -> bool:
    from repro.ycsb.presets import workload_by_name

    try:
        return isinstance(name, str) and bool(workload_by_name(name))
    except ConfigurationError:
        return False


@dataclass(frozen=True)
class AdviceRequest:
    """What one caller asks Mnemo: a validated, hashable question.

    ``workload`` is any name :func:`~repro.ycsb.presets.workload_by_name`
    resolves, or None for the ``requests`` / ``dataset`` CSV pair of a
    recorded trace; ``mode`` ``"touch"`` profiles with Mnemo,
    ``"weight"`` with MnemoT; ``slo`` and the price factor ``p`` are in
    (0, 1); ``repeats`` and ``seed`` set the measuring client;
    ``downsample`` N > 1 profiles a 1/N sample of a built-in workload.
    """

    workload: str | None = None
    requests: str | None = None
    dataset: str | None = None
    engine: str = "redis"
    mode: str = "touch"
    slo: float = 0.10
    p: float = 0.2
    repeats: int = 3
    seed: int | None = None
    downsample: float = 0.0

    def __post_init__(self) -> None:
        # every door hands this whatever it was sent (argv, JSON, a
        # reload), so each field is checked for type as well as range
        if self.requests is None and self.dataset is None:
            require(_is_builtin(self.workload), "workload",
                    "a built-in workload name", self.workload)
        else:
            require(self.workload is None, "workload",
                    "omitted when requests/dataset are given", self.workload)
            for name in ("requests", "dataset"):
                path = getattr(self, name)
                require(isinstance(path, (str, os.PathLike)), name,
                        "a CSV path (requests and dataset go together)", path)
        require(isinstance(self.engine, str) and self.engine in ENGINES,
                "engine", f"one of {', '.join(ENGINES)}", self.engine)
        require(isinstance(self.mode, str) and self.mode in MODES,
                "mode", f"one of {', '.join(MODES)}", self.mode)
        require(is_real(self.slo) and 0 < self.slo < 1,
                "slo", "a number in (0, 1)", self.slo)
        require(is_real(self.p) and 0 < self.p < 1,
                "p", "a number in (0, 1)", self.p)
        require(is_whole(self.repeats) and self.repeats >= 1,
                "repeats", "an integer >= 1", self.repeats)
        require(self.seed is None or (is_whole(self.seed) and self.seed >= 0),
                "seed", "a non-negative integer or null", self.seed)
        require(is_real(self.downsample) and self.downsample >= 0,
                "downsample", "a number >= 0", self.downsample)
        require(self.downsample <= 1 or self.workload is not None,
                "downsample", "<= 1 for a requests/dataset trace "
                "(it applies to built-in workloads only)", self.downsample)

    @property
    def profile_key(self) -> tuple:
        """Every field but ``slo``: requests with equal keys share a profile."""
        return (
            self.workload, self.requests, self.dataset, self.engine,
            self.mode, self.p, self.repeats, self.seed, self.downsample,
        )


@dataclass(frozen=True)
class Advice:
    """The answer: the trace profiled, the consultant that profiled it
    (guard replays go through it), its report and the SLO choice."""

    request: AdviceRequest
    trace: Trace
    consultant: Mnemo
    report: MnemoReport
    choice: SizingChoice

    def summary(self) -> str:
        """The report digest, then the sizing at the request's SLO."""
        c = self.choice
        return (
            f"{self.report.summary()}\n"
            f"\nat the {self.request.slo:.0%} slowdown SLO: place "
            f"{c.n_fast_keys:,} keys ({c.fast_bytes / 1e6:.0f} MB, "
            f"{c.capacity_ratio:.0%} of data) in FastMem -> "
            f"{c.savings_percent:.0f}% memory-cost saving"
        )


def advise(request: AdviceRequest, cache=None, deadline=None) -> Advice:
    """Build the request's trace, profile it, choose at its SLO.

    *cache* is an optional result store (path or open store); an
    optional *deadline* is checked before the trace and the profile.
    """
    from repro.ycsb.client import YCSBClient

    if request.mode == "weight":
        from repro.core.mnemot import MnemoT as consultant_class
    else:
        from repro.core.mnemo import Mnemo as consultant_class

    if deadline is not None:
        deadline.check(CHECKPOINT_TRACE)
    if request.workload is None:
        from repro.ycsb.trace_io import load_trace_csv

        trace = load_trace_csv(request.requests, request.dataset)
    else:
        trace = builtin_trace(request.workload)
        if request.downsample > 1:
            from repro.ycsb.sampling import downsample

            trace = downsample(
                trace, factor=request.downsample, seed=request.seed,
            )
    if deadline is not None:
        deadline.check(CHECKPOINT_PROFILE)
    module, engine = ENGINES[request.engine]
    consultant = consultant_class(
        engine_factory=getattr(import_module(module), engine),
        client=YCSBClient(repeats=request.repeats, seed=request.seed),
        p=request.p,
        cache=cache,
    )
    report = consultant.profile(trace)
    return Advice(
        request=request, trace=trace, consultant=consultant, report=report,
        choice=report.choose(request.slo),
    )
