#!/usr/bin/env python3
"""Compare two result sets of ``run.py``: ``compare.py A.json B.json``.

``A`` is the base (the parent commit, or the first of two sets of the
same commit), ``B`` the candidate.  One row per (workload, end-to-end
metric), judged against the metric's regression bound — from
``BENCHMARK.json`` for the metrics the driver gates, from
``metrics.py`` for the workload-scoped ones:

- ``worse``      B's median is worse than A's by more than the bound;
- ``better``     B's median is better by more than the bound, or every
                 run of B reads better than every run of A;
- ``unchanged``  the medians differ by no more than the bound;
- ``unresolved`` the medians differ by no more than the bound but the
                 run-to-run spread (interquartile distance, the wider
                 side) exceeds it, so "unchanged" cannot be claimed.

Every ratio is printed with its base.  Exit code 1 when any row is
``worse``, so the script also serves as a gate.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import metrics
from harness import ROOT, quartiles


def bounds() -> dict[str, tuple[float | None, float | None]]:
    """metric name -> (relative bound, absolute bound)."""
    table = {
        m.name: (m.bound, m.bound_abs) for m in metrics.END_TO_END
    }
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in contract["end_to_end"]:
        table[entry["name"]] = (entry["bound"], None)
    return table


def judge(better: str, base_runs, new_runs,
          bound: float | None, bound_abs: float | None) -> dict:
    """Verdict for one metric from the runs of both sides."""
    b_q1, base, b_q3 = quartiles(base_runs)
    n_q1, new, n_q3 = quartiles(new_runs)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new - base)
    allowed = bound_abs if bound_abs is not None else bound * abs(base)
    spread = max(b_q3 - b_q1, n_q3 - n_q1)
    if better == "lower":
        separated = max(new_runs) < min(base_runs)
    else:
        separated = min(new_runs) > max(base_runs)
    if worse_by > allowed:
        verdict = "worse"
    elif worse_by < -allowed or (separated and len(base_runs) > 1):
        verdict = "better"
    elif spread > allowed and min(len(base_runs), len(new_runs)) > 1:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {
        "verdict": verdict, "base": base, "new": new,
        "ratio": new / base if base else None,
        "allowed": allowed, "spread": spread,
    }


def compare(a: dict, b: dict) -> list[dict]:
    """Rows for every (workload, end-to-end metric) both sets report."""
    table = bounds()
    rows = []
    for workload in metrics.WORKLOADS:
        if workload not in a["workloads"] or workload not in b["workloads"]:
            continue
        ma = a["workloads"][workload]["metrics"]
        mb = b["workloads"][workload]["metrics"]
        for metric in metrics.END_TO_END:
            if metric.name not in ma or metric.name not in mb:
                continue
            bound, bound_abs = table[metric.name]
            row = judge(
                metric.better, ma[metric.name]["runs"],
                mb[metric.name]["runs"], bound, bound_abs,
            )
            row.update(
                workload=workload, metric=metric.name, unit=metric.unit,
                bound=bound, bound_abs=bound_abs,
                n_base=len(ma[metric.name]["runs"]),
                n_new=len(mb[metric.name]["runs"]),
            )
            rows.append(row)
    return rows


def render(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<13} {'metric':<17} {'base':>12} {'new':>12} "
        f"{'new/base':>9} {'bound':>8} {'spread':>9}  verdict"
    ]
    for r in rows:
        ratio = "-" if r["ratio"] is None else f"{r['ratio']:.3f}x"
        bound = (
            f"+{r['bound_abs']:g}" if r["bound_abs"] is not None
            else f"{r['bound']:.0%}"
        )
        lines.append(
            f"{r['workload']:<13} {r['metric']:<17} "
            f"{r['base']:>12.5g} {r['new']:>12.5g} {ratio:>9} {bound:>8} "
            f"{r['spread']:>9.3g}  {r['verdict']} "
            f"(base {r['base']:.5g} {r['unit']}, n={r['n_base']}/{r['n_new']})"
        )
    counts: dict[str, int] = {}
    for r in rows:
        counts[r["verdict"]] = counts.get(r["verdict"], 0) + 1
    lines.append(", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    rows = compare(a, b)
    print(f"base {argv[0]} (commit {a['host']['commit']}) vs "
          f"new {argv[1]} (commit {b['host']['commit']})")
    print(render(rows))
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
