"""Zero-dependency metrics primitives: counters, gauges, histograms.

The registry is deliberately small: three metric types, label support,
snapshot/merge (so pool workers can ship their metrics back to the
coordinating process alongside results), and Prometheus text-format
rendering for the future served-advisor daemon.  Nothing here touches
RNG streams, fingerprints or simulated numbers — metrics observe the
pipeline, they never participate in it.

All operations are in-memory and allocation-light; the instrumented hot
paths (cache probes, kernel placements) call :meth:`Counter.inc` a
handful of times per multi-millisecond measurement, so the overhead
budget in ``BENCH_obs.json`` holds with wide margin.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.errors import ConfigurationError

#: Default histogram bucket upper bounds (seconds-scale durations).
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

#: Label key/value pairs as stored internally (sorted, stringified).
LabelsKey = tuple[tuple[str, str], ...]


def labels_key(labels: dict[str, object]) -> LabelsKey:
    """Canonical (sorted, stringified) form of a label set."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be >= 0) to the counter."""
        if amount < 0:
            raise ConfigurationError(
                f"counters only go up; got increment {amount}"
            )
        self.value += amount

    def payload(self) -> dict:
        """JSON-ready value payload."""
        return {"value": self.value}

    def merge(self, payload: dict) -> None:
        """Fold another counter's payload into this one."""
        self.value += float(payload["value"])


class Gauge:
    """A value that can go up and down (last write wins on merge)."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to *value*."""
        self.value = float(value)

    def payload(self) -> dict:
        """JSON-ready value payload."""
        return {"value": self.value}

    def merge(self, payload: dict) -> None:
        """Adopt the merged-in gauge's value (last write wins)."""
        self.value = float(payload["value"])


class Histogram:
    """Fixed-bucket histogram (cumulative on render, like Prometheus).

    Buckets are upper bounds; an implicit ``+Inf`` bucket catches the
    rest.  ``counts[i]`` is the number of observations in bucket ``i``
    (non-cumulative internally; the Prometheus renderer accumulates).
    """

    kind = "histogram"

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ConfigurationError(
                f"histogram buckets must be strictly increasing, got {bounds}"
            )
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def payload(self) -> dict:
        """JSON-ready value payload."""
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    def merge(self, payload: dict) -> None:
        """Fold another histogram's payload into this one."""
        if tuple(payload["buckets"]) != self.buckets:
            raise ConfigurationError(
                "cannot merge histograms with different bucket bounds"
            )
        for i, c in enumerate(payload["counts"]):
            self.counts[i] += int(c)
        self.sum += float(payload["sum"])
        self.count += int(payload["count"])


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Holds every metric of one telemetry session, keyed by name+labels."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, LabelsKey], Counter | Gauge | Histogram] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def _get(self, cls, name: str, labels: dict, **kwargs):
        key = (name, labels_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            # one atomic insert: threads that race to create it share one
            metric = self._metrics.setdefault(key, cls(**kwargs))
        if not isinstance(metric, cls):
            raise ConfigurationError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, **labels) -> Counter:
        """The counter registered under (*name*, *labels*)."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        """The gauge registered under (*name*, *labels*)."""
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS, **labels,
    ) -> Histogram:
        """The histogram registered under (*name*, *labels*)."""
        return self._get(Histogram, name, labels, buckets=buckets)

    # -- snapshot / merge -----------------------------------------------------

    def snapshot(self) -> list[dict]:
        """JSON-ready records, one per metric, deterministic order."""
        out = []
        for (name, lk), metric in sorted(self._metrics.items()):
            out.append({
                "name": name,
                "type": metric.kind,
                "labels": dict(lk),
                **metric.payload(),
            })
        return out

    def merge(self, records: list[dict]) -> None:
        """Fold a :meth:`snapshot` (e.g. from a pool worker) into this one.

        Counters and histograms accumulate; gauges adopt the merged-in
        value (last write wins — worker gauges are rare and per-run).
        """
        for rec in records:
            cls = _KINDS[rec["type"]]
            kwargs = (
                {"buckets": tuple(rec["buckets"])}
                if rec["type"] == "histogram" else {}
            )
            metric = self._get(cls, rec["name"], rec.get("labels", {}), **kwargs)
            metric.merge(rec)

    # -- export ---------------------------------------------------------------

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (0.0.4) of every metric.

        Metric names have dots replaced by underscores; histogram
        buckets render cumulatively with the standard ``_bucket`` /
        ``_sum`` / ``_count`` series.
        """
        lines: list[str] = []
        typed: set[str] = set()
        for rec in self.snapshot():
            name = rec["name"].replace(".", "_").replace("-", "_")
            if name not in typed:
                lines.append(f"# TYPE {name} {rec['type']}")
                typed.add(name)
            labels = rec["labels"]
            if rec["type"] == "histogram":
                cum = 0
                for bound, count in zip(
                    [*rec["buckets"], "+Inf"],
                    rec["counts"],
                ):
                    cum += count
                    le = {**labels, "le": bound}
                    lines.append(f"{name}_bucket{_label_str(le)} {cum}")
                lines.append(f"{name}_sum{_label_str(labels)} {rec['sum']:g}")
                lines.append(
                    f"{name}_count{_label_str(labels)} {rec['count']}"
                )
            else:
                lines.append(f"{name}{_label_str(labels)} {rec['value']:g}")
        return "\n".join(lines) + ("\n" if lines else "")


def _label_str(labels: dict) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + body + "}"
