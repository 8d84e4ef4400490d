"""Rendering of telemetry event logs for the ``mnemo obs`` CLI.

Takes the JSONL records a :class:`~repro.telemetry.session.TelemetrySession`
flushed and produces operator-facing text: the reassembled span tree,
the top-N slow spans, the cache hit rate, the kernel path mix (as ASCII
bars via :mod:`repro.analysis.asciiplot`), and a Prometheus text-format
export of the final metrics (the same text the served advisor's
``metrics`` op returns).
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.asciiplot import render_bars
from repro.errors import ConfigurationError
from repro.telemetry.events import read_jsonl
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import build_tree


class RunView:
    """One parsed event log, split by record kind."""

    def __init__(self, records: list[dict], problems: list[str] = ()):  # noqa: B006
        self.problems = list(problems)
        self.header: dict | None = None
        self.spans: list[dict] = []
        self.events: list[dict] = []
        self.metrics: list[dict] = []
        for rec in records:
            kind = rec["kind"]
            if kind == "run" and self.header is None:
                self.header = rec
            elif kind == "span":
                self.spans.append(rec)
            elif kind == "event":
                self.events.append(rec)
            elif kind == "metric":
                self.metrics.append(rec)

    @classmethod
    def load(cls, path: str | Path) -> "RunView":
        """Parse a JSONL event log (invalid lines become ``problems``)."""
        records, problems = read_jsonl(path)
        if not records:
            raise ConfigurationError(
                f"{path}: no valid telemetry records"
                + (f" ({problems[0]})" if problems else "")
            )
        return cls(records, problems)

    @property
    def run_id(self) -> str:
        """The run id stamped on the records."""
        if self.header is not None:
            return self.header["run"]
        first = self.spans or self.events or self.metrics
        return first[0]["run"] if first else "?"

    def counter_total(self, name: str, **match) -> float:
        """Sum of a counter over label sets containing *match*."""
        total = 0.0
        for rec in self.metrics:
            if rec["name"] != name or rec["type"] != "counter":
                continue
            labels = rec.get("labels", {})
            if all(labels.get(k) == v for k, v in match.items()):
                total += rec["value"]
        return total

    def counter_breakdown(self, name: str, label: str) -> dict[str, float]:
        """Counter totals grouped by one label's values."""
        out: dict[str, float] = {}
        for rec in self.metrics:
            if rec["name"] != name or rec["type"] != "counter":
                continue
            key = rec.get("labels", {}).get(label, "?")
            out[key] = out.get(key, 0.0) + rec["value"]
        return out

    def histogram_breakdown(self, name: str, label: str) -> dict[str, dict]:
        """Merged histogram payloads grouped by one label's values.

        Returns ``{label_value: {"buckets": ..., "counts": ...,
        "sum": ..., "count": ...}}`` with same-bucket histograms folded
        together (mismatched bucket layouts keep the first seen).
        """
        out: dict[str, dict] = {}
        for rec in self.metrics:
            if rec["name"] != name or rec["type"] != "histogram":
                continue
            key = rec.get("labels", {}).get(label, "?")
            merged = out.get(key)
            if merged is None:
                out[key] = {
                    "buckets": list(rec["buckets"]),
                    "counts": [int(c) for c in rec["counts"]],
                    "sum": float(rec["sum"]),
                    "count": int(rec["count"]),
                }
            elif list(rec["buckets"]) == merged["buckets"]:
                for i, c in enumerate(rec["counts"]):
                    merged["counts"][i] += int(c)
                merged["sum"] += float(rec["sum"])
                merged["count"] += int(rec["count"])
        return out


def _fmt_ns(ns: float) -> str:
    if ns >= 1e9:
        return f"{ns / 1e9:.2f}s"
    if ns >= 1e6:
        return f"{ns / 1e6:.1f}ms"
    return f"{ns / 1e3:.0f}us"


def render_span_tree(view: RunView, max_spans: int = 200) -> list[str]:
    """The run's spans as an indented tree with durations.

    Sibling order is (pid, start) — stable per process.
    """
    roots, children = build_tree(view.spans)
    lines: list[str] = []

    def walk(span: dict, depth: int) -> None:
        if len(lines) >= max_spans:
            return
        attrs = span.get("attrs", {})
        label = attrs.get("label") or attrs.get("workload") or ""
        tag = f" [{label}]" if label else ""
        pid = span["pid"]
        lines.append(
            f"{'  ' * depth}{span['name']}{tag}  "
            f"{_fmt_ns(span['duration_ns'])}  (pid {pid})"
        )
        for child in children.get(span["span"], []):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    if len(view.spans) > max_spans:
        lines.append(f"... {len(view.spans) - max_spans} more spans")
    return lines or ["(no spans recorded)"]


def render_slow_spans(view: RunView, top: int = 10) -> list[str]:
    """The *top* slowest spans, widest first."""
    if not view.spans:
        return ["(no spans recorded)"]
    ranked = sorted(
        view.spans, key=lambda s: s["duration_ns"], reverse=True,
    )[:top]
    lines = [f"{'span':<28} {'label':<34} {'duration':>10}"]
    for s in ranked:
        label = str(s.get("attrs", {}).get("label", ""))[:34]
        lines.append(
            f"{s['name']:<28} {label:<34} {_fmt_ns(s['duration_ns']):>10}"
        )
    return lines


def render_cache_summary(view: RunView) -> list[str]:
    """Cache hit rate and quarantine census from the final counters."""
    hits = view.counter_total("cache.lookup", outcome="hit")
    misses = view.counter_total("cache.lookup", outcome="miss")
    total = hits + misses
    if total == 0:
        return ["cache: no lookups recorded"]
    lines = [
        f"cache: {int(total)} lookups, hit rate {hits / total:.1%} "
        f"({int(hits)} hits / {int(misses)} misses)"
    ]
    by_kind = view.counter_breakdown("cache.lookup", "kind")
    for kind in sorted(by_kind):
        kh = view.counter_total("cache.lookup", kind=kind, outcome="hit")
        lines.append(f"  {kind:<10} {int(by_kind[kind]):>6} lookups  "
                     f"{kh / by_kind[kind]:.0%} hit")
    quarantined = view.counter_total("cache.quarantine")
    if quarantined:
        lines.append(f"  quarantined: {int(quarantined)} corrupt entries")
    return lines


def render_path_mix(view: RunView, width: int = 40) -> list[str]:
    """The memsim path mix (batch kernel / analytic)."""
    mix = view.counter_breakdown("memsim.path", "path")
    if not mix:
        return ["kernel paths: none recorded"]
    labels = sorted(mix)
    lines = ["kernel path mix (placements measured per path):"]
    lines += render_bars(labels, [mix[k] for k in labels], width=width)
    fallbacks = view.counter_total("memsim.fallback")
    if fallbacks:
        lines.append(
            f"  fast-path fallbacks: {int(fallbacks)} "
            "(live-seeded client bypassed fingerprinting)"
        )
    return lines


def histogram_quantile(payload: dict, q: float) -> float | None:
    """Approximate quantile *q* from a histogram payload (upper bound).

    Returns the upper bound of the bucket containing the *q*-th
    observation — the standard bucketed-histogram estimate, biased
    high by at most one bucket width.  ``inf``-bucket hits fall back
    to the mean (better than reporting infinity); None when empty.
    """
    count = int(payload.get("count", 0))
    if count == 0:
        return None
    rank = q * count
    seen = 0
    for bound, c in zip(payload["buckets"], payload["counts"]):
        seen += int(c)
        if seen >= rank:
            return float(bound)
    return payload["sum"] / count


def render_request_plane(view: RunView) -> list[str]:
    """The served-advisor request-plane section of the ``obs`` report.

    Empty when the log contains no ``serve.control`` traffic, so the
    section only appears for daemon runs.
    """
    ops = view.counter_breakdown("serve.control", "op")
    if not ops:
        return []
    total = int(sum(ops.values()))
    lines = [f"request plane: {total} control requests"]
    latency = view.histogram_breakdown("serve.request_s", "op")
    for op in sorted(ops):
        line = f"  {op:<10} {int(ops[op]):>6}"
        h = latency.get(op)
        if h and h["count"]:
            p50 = histogram_quantile(h, 0.50)
            p99 = histogram_quantile(h, 0.99)
            line += (
                f"  mean {h['sum'] / h['count'] * 1e3:.1f}ms"
                f"  p50<={p50 * 1e3:.0f}ms  p99<={p99 * 1e3:.0f}ms"
            )
        lines.append(line)
    shed = view.counter_total("serve.shed")
    deadline = view.counter_total("serve.deadline_exceeded")
    unauthorized = view.counter_total("serve.unauthorized")
    degraded = view.counter_total("serve.degraded")
    stale = view.counter_total("serve.stale_served")
    troubles = []
    if shed:
        troubles.append(f"shed {int(shed)}")
    if deadline:
        troubles.append(f"deadline_exceeded {int(deadline)}")
    if unauthorized:
        troubles.append(f"unauthorized {int(unauthorized)}")
    if degraded:
        troubles.append(f"degraded {int(degraded)} "
                        f"(stale served {int(stale)})")
    if troubles:
        lines.append("  " + ", ".join(troubles))
    return lines


def render_run(view: RunView, top: int = 10) -> str:
    """The full ``mnemo obs`` report for one event log."""
    lines = [f"run {view.run_id}"]
    if view.header is not None and view.header.get("attrs"):
        attrs = view.header["attrs"]
        described = ", ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        lines.append(f"  {described}")
    lines.append(
        f"  {len(view.spans)} spans, {len(view.events)} events, "
        f"{len(view.metrics)} metrics"
    )
    if view.problems:
        lines.append(f"  {len(view.problems)} invalid lines skipped")
    lines += ["", "span tree:"]
    lines += [f"  {l}" for l in render_span_tree(view)]
    lines += ["", f"top {top} slow spans:"]
    lines += [f"  {l}" for l in render_slow_spans(view, top=top)]
    lines.append("")
    lines += render_cache_summary(view)
    lines.append("")
    lines += render_path_mix(view)
    plane = render_request_plane(view)
    if plane:
        lines.append("")
        lines += plane
    events = _event_counts(view)
    if events:
        lines += ["", "events:"]
        lines += [f"  {name:<28} {n:>6}" for name, n in events]
    return "\n".join(lines)


def _event_counts(view: RunView) -> list[tuple[str, int]]:
    counts: dict[str, int] = {}
    for ev in view.events:
        counts[ev["name"]] = counts.get(ev["name"], 0) + 1
    return sorted(counts.items())


def to_prometheus(view: RunView) -> str:
    """Re-render the log's final metrics in Prometheus text format."""
    registry = MetricsRegistry()
    registry.merge([
        {k: v for k, v in rec.items() if k not in ("run", "schema", "kind")}
        for rec in view.metrics
    ])
    return registry.to_prometheus()
