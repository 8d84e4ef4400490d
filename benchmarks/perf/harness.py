"""Measuring primitives of the perf harness.

Everything here is independent of ``repro``: importing this module
must not import the program under test, because the time the harness
spends importing ``repro`` is part of ``setup_s``.

- sample statistics (:func:`percentile`, :func:`tail_percentile`,
  :func:`quartiles`, :func:`relative_spread`) with the sample-count
  rule: a percentile is reported only when at least ten samples lie
  beyond it;
- :class:`Tracer` — harness-side spans (name, start, end, parent) kept
  in memory, plus :meth:`Tracer.instrument`, which wraps a *public*
  callable of the program so calls into a layer are timed from outside;
- :func:`closed_loop` — the load generator: ``threads`` callers, each
  issuing its next operation only when the previous one returned;
- :func:`calibrate` — the fixed numpy loop of the host-noise guard;
- CPU / RSS accounting over the harness and its children, host facts;
- :func:`adopt_orphans` / :func:`reap_children` — no process outlives a run.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import sys
import threading
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Repository root (the harness lives in ``benchmarks/perf/``).
HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Where spans, scratch stores and result files go (relative to
#: :data:`ROOT`, which ``run.py`` makes the working directory; relative
#: so that unix-socket paths stay far below the 108-byte limit).
OUT_DIR = Path("benchmarks") / "out" / "perf"

#: A percentile is reported only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10
#: Two calibrations further apart than this flag the run as noisy.
CALIB_TOLERANCE = 0.10
#: The calibration loop: laps of rounds, about half a second in all on the
#: seed host.  The fastest lap is reported, so a blip that hits one lap of
#: the calibration itself does not read as a slow host.
CALIB_LAPS = 3
CALIB_ROUNDS = 33

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def derive(seed: int, label: str) -> int:
    """A stable 31-bit sub-seed of *seed* for the stream named *label*."""
    raw = hashlib.sha256(f"{int(seed)}/{label}".encode()).digest()
    return int.from_bytes(raw[:4], "big") & 0x7FFF_FFFF


# -- sample statistics ---------------------------------------------------------


def percentile(samples, q: float) -> float:
    """The *q*-th percentile (0..100) by linear interpolation."""
    data = sorted(samples)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_percentile(samples, q: float) -> float | None:
    """The *q*-th percentile, or None with too few samples beyond it."""
    if len(samples) * (100.0 - q) / 100.0 < MIN_TAIL_SAMPLES:
        return None
    return percentile(samples, q)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median (0 for one value)."""
    q1, med, q3 = quartiles(values)
    return abs(q3 - q1) / abs(med) if med else 0.0


# -- spans ---------------------------------------------------------------------


@dataclass
class Span:
    """One timed interval; ``parent`` is the id of the span that caused it."""

    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    op: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder around calls into the program's layers.

    Spans nest per thread.  :meth:`instrument` replaces a public
    callable with a wrapper that records one span per call; every
    replacement is undone by :meth:`restore`.  A disabled tracer
    (``enabled = False``) makes every wrapper a plain call, which is
    how the untraced phase of a traced run shares the patched program.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, op: int | None = None):
        """Record one span; yields it so callers can attach counts."""
        if not self.enabled:
            yield None
            return
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        sp = Span(
            id=next(self._ids),
            parent=parent.id if parent else None,
            name=name,
            start=time.perf_counter(),
            op=op if op is not None else (parent.op if parent else None),
        )
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(sp)

    def _wrap(self, fn, name: str, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
            if count is not None:  # off the span's clock
                sp.counts.update(count(args, kwargs, out))
            return out

        return wrapper

    def instrument(self, owner, attr: str, name: str, count=None) -> None:
        """Wrap ``owner.attr`` (a class or module attribute) in a span.

        *count*, when given, maps ``(args, kwargs, result)`` to a dict
        of work counts stored on the span.  A module-level function is
        also re-bound in every loaded ``repro`` or harness module that
        imported it by name, so those callers see the wrapper too.
        """
        raw = owner.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(raw.__func__, name, count))
        else:
            wrapped = self._wrap(raw, name, count)
        self._patch(owner, attr, raw, wrapped)
        if isinstance(owner, types.ModuleType):
            for mod_name, mod in list(sys.modules.items()):
                ours = mod_name.startswith("repro") or str(
                    getattr(mod, "__file__", "")).startswith(str(HERE))
                if mod is owner or not ours:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._patch(mod, key, raw, wrapped)

    def _patch(self, owner, attr: str, raw, wrapped) -> None:
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        """Undo every :meth:`instrument` (idempotent)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def self_times(self, spans=None) -> dict[str, dict]:
        """Per span name: calls, inclusive and self seconds, summed counts.

        A span's self time is its duration minus the part of that
        interval its direct children cover.
        """
        spans = self.spans if spans is None else spans
        child_time: dict[int, float] = {}
        for sp in spans:
            if sp.parent is not None:
                child_time[sp.parent] = (
                    child_time.get(sp.parent, 0.0) + sp.duration
                )
        table: dict[str, dict] = {}
        for sp in spans:
            row = table.setdefault(
                sp.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}},
            )
            row["calls"] += 1
            row["total_s"] += sp.duration
            row["self_s"] += sp.duration - child_time.get(sp.id, 0.0)
            for key, value in sp.counts.items():
                row["counts"][key] = row["counts"].get(key, 0) + value
        return table

    def dump(self, path: Path) -> Path:
        """Write every span as one JSON line; returns *path*."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps({
                    "id": sp.id, "parent": sp.parent, "name": sp.name,
                    "start": sp.start, "end": sp.end, "op": sp.op,
                    "counts": sp.counts,
                }) + "\n")
        return path


# -- the load generator --------------------------------------------------------


@dataclass
class OpRecord:
    """One attempted operation: its schedule slot, latency and verdict."""

    index: int
    seconds: float
    error: str | None = None


def closed_loop(op, check, schedule, seconds: float, threads: int = 1,
                tracer: Tracer | None = None, first_index: int = 0,
                max_ops: int | None = None, prepare=None) -> list[OpRecord]:
    """Run ``op`` in a closed loop for *seconds*; returns every attempt.

    ``threads`` callers share one op counter; each takes the next index
    ``i`` and its item ``schedule[i % len(schedule)]`` (passed through
    ``prepare(i, item)`` off the clock when given, so building a request
    is not charged to the program), runs ``op(i, item)`` under the
    clock, then ``check(i, item, result)`` off the clock.  ``check``
    returns None or the reason the output is wrong; an exception from
    ``op`` is a failed attempt.  Every caller attempts at least one op.
    """
    counter = itertools.count(first_index)
    counter_lock = threading.Lock()
    deadline = time.perf_counter() + seconds
    records: list[OpRecord] = []
    records_lock = threading.Lock()

    def caller() -> None:
        while True:
            with counter_lock:
                i = next(counter)
            if max_ops is not None and i - first_index >= max_ops:
                return
            item = schedule[i % len(schedule)]
            if prepare is not None:
                item = prepare(i, item)
            error = None
            result = None
            span = tracer.span("op", op=i) if tracer is not None else None
            t0 = time.perf_counter()
            try:
                if span is not None:
                    with span:
                        result = op(i, item)
                else:
                    result = op(i, item)
            except Exception as exc:  # noqa: BLE001 - a failed op is data
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if error is None:
                error = check(i, item, result)
            with records_lock:
                records.append(OpRecord(i, elapsed, error))
            if time.perf_counter() >= deadline:
                return

    if threads == 1:
        caller()
    else:
        pool = [threading.Thread(target=caller) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
    records.sort(key=lambda r: r.index)
    return records


# -- host noise, CPU and memory ------------------------------------------------


def calibrate() -> float:
    """Milliseconds a fixed numpy workload takes on this host right now.

    The work is constant (sort, prefix sum and a small matrix product
    over seeded arrays), so the reading moves only with the host: a
    busy neighbour, a throttled core.
    """
    rng = np.random.default_rng(20190520)
    x = rng.random(400_000)
    m = rng.random((160, 160))

    def work(rounds: int) -> float:
        acc = 0.0
        for _ in range(rounds):
            acc += float(np.sort(x)[1000])
            acc += float(np.cumsum(x)[-1])
            acc += float((m @ m).trace())
        return acc

    work(4)  # page in the arrays and numpy's code paths off the clock
    laps = []
    for _ in range(CALIB_LAPS):
        t0 = time.perf_counter()
        acc = work(CALIB_ROUNDS)
        laps.append(time.perf_counter() - t0)
        if not acc > 0:  # consume the result inside the timed region
            raise RuntimeError("calibration produced no work")
    return min(laps) * CALIB_LAPS * 1e3


def _proc_cpu_seconds(pid: int) -> float:
    """utime+stime (+ reaped children) of a live process, from /proc."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    fields = stat.rsplit(")", 1)[1].split()
    return sum(int(fields[i]) for i in (11, 12, 13, 14)) / _CLK_TCK


def cpu_seconds(live_pids=()) -> float:
    """user+sys CPU of the harness, its reaped children and *live_pids*."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total + sum(_proc_cpu_seconds(pid) for pid in live_pids)


def peak_rss_mb() -> float:
    """Largest resident set among the harness and its reaped children."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def commit_id() -> str:
    """The checked-out commit, read from ``.git`` (``unknown`` outside git)."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref:"):
            ref = ROOT / ".git" / text.split(None, 1)[1]
            text = ref.read_text().strip()
        return text[:12]
    except OSError:
        return "unknown"


def host_facts() -> dict:
    """The host a result was measured on (recorded with every result)."""
    return {
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "commit": commit_id(),
    }


# -- leaving no process behind ---------------------------------------------------


def adopt_orphans() -> None:
    """Make this process the reaper of all its descendants (Linux).

    A grandchild whose parent exits (the daemon's or a CLI spawn's
    helper processes) is then re-parented to the harness instead of
    init, so :func:`reap_children` can wait for it too.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass  # not Linux: direct children are still reaped


def children_of(pid: int) -> list[int]:
    """Every process (running or zombie) whose parent is *pid*."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue  # gone between listdir and read
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            found.append(int(entry))
    return found


def reap_children(grace_s: float = 5.0) -> int:
    """Stop every child of this process and wait until each has ended.

    ``multiprocessing``'s resource tracker (started by the runner's
    shared-memory plane) is a child that ignores SIGTERM and only exits
    once the harness has: without this it outlives the run.  It is
    stopped the way ``multiprocessing`` stops it; whatever else is
    still there gets SIGTERM after half of *grace_s*, SIGKILL after all
    of it.  Returns how many children were waited for.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        try:
            stop()
        except (OSError, ChildProcessError):
            pass
    me, reaped, started = os.getpid(), 0, time.perf_counter()
    asked: set[int] = set()
    while True:
        kids = children_of(me)
        if not kids:
            return reaped
        waited = time.perf_counter() - started
        for pid in kids:
            try:
                if waited >= grace_s:
                    os.kill(pid, signal.SIGKILL)
                elif waited >= grace_s / 2.0 and pid not in asked:
                    asked.add(pid)
                    os.kill(pid, signal.SIGTERM)
                done, _ = os.waitpid(pid, os.WNOHANG)
            except (ChildProcessError, ProcessLookupError):
                continue  # ended and waited for between the scan and here
            reaped += done == pid
        time.sleep(0.01)


def child_env() -> dict:
    """Environment of every child: ``repro`` importable, one BLAS thread."""
    env = dict(os.environ)
    path = str(SRC)
    if env.get("PYTHONPATH"):
        path = f"{path}{os.pathsep}{env['PYTHONPATH']}"
    env["PYTHONPATH"] = path
    return env
