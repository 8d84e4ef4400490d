#!/usr/bin/env python
"""A/B one benchmark workload between a parent revision and this tree.

    python tools/ab_bench.py --parent REV --workload W [--pairs 10] [--seconds 20]

``git archive`` unpacks REV into a temporary directory; each pair then
runs ``benchmarks/perf/run.py --workload W --seed i --seconds S
--trace 0`` once from there and once from the working tree, the side
that goes first flipping every pair (the 2-core host drifts by ±5 %
over minutes).  Prints, per end-to-end metric of ``BENCHMARK.json``,
each side's median and quartiles, the pairs the change won and the
verdict: a gain (or loss) counts only when one side wins at least nine
tenths of the pairs — ties count for neither — and the medians differ
by more than the distance between the parent's quartiles.

This only *calls* the harness.  Exit status: 1 when any run reported
``correct: false``, a failed op or a non-zero exit; 0 otherwise,
whatever the verdicts.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), linearly interpolated."""
    return tuple(float(q) for q in np.percentile(values, (25, 50, 75)))


def run_pairs(run, pairs: int) -> list[dict[str, dict]]:
    """``[{side: run(side, seed)}]``, alternating which side goes first."""
    out = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        out.append({side: run(side, i + 1) for side in order})
    return out


def verdict(parent: list[float], change: list[float], better: str) -> dict:
    """Section 8 of the choosing-metrics guide for one metric's pairs."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    resolved = abs(c_med - p_med) > p_q3 - p_q1
    needed = WIN_SHARE * len(parent)
    if resolved and wins >= needed and sign * (c_med - p_med) > 0:
        word = "better"
    elif resolved and losses >= needed and sign * (c_med - p_med) < 0:
        word = "worse"
    else:
        word = "unresolved"
    return {
        "parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
        "wins": wins, "losses": losses, "verdict": word,
    }


def failed_runs(results: list[dict[str, dict]]) -> list[str]:
    """One line per run that was incorrect or lost an op."""
    return [
        f"pair {i + 1} {side}: correct={r.get('correct')} "
        f"failed={r.get('failed')}"
        for i, pair in enumerate(results) for side, r in pair.items()
        if r.get("correct") is not True or r.get("failed", 1)
    ]


def render(results: list[dict[str, dict]], end_to_end: list[dict]) -> str:
    """The verdict table for *results* over the *end_to_end* metrics."""
    lines = [
        f"{'metric':<14} {'parent q1/med/q3':>30} {'change q1/med/q3':>30} "
        f"{'wins':>7}  verdict"
    ]
    for metric in end_to_end:
        name = metric["name"]
        # a failed run may carry no metrics; its pair sits out
        whole = [
            pair for pair in results
            if all(name in pair[side].get("metrics", {}) for side in SIDES)
        ]
        if not whole:
            lines.append(f"{name:<14} no pair measured it")
            continue
        columns = [
            [pair[side]["metrics"][name]["value"] for pair in whole]
            for side in SIDES
        ]
        v = verdict(*columns, metric["better"])
        spans = [
            "/".join(f"{x:.4g}" for x in v[side]).rjust(30) for side in SIDES
        ]
        lines.append(
            f"{name:<14} {spans[0]} {spans[1]} "
            f"{v['wins']:>4}/{len(whole):<2}  {v['verdict']}"
        )
    return "\n".join(lines)


def unpack(rev: str, dest: Path) -> None:
    """``git archive`` *rev* of this repository into *dest*."""
    archive = dest.with_suffix(".tar")
    subprocess.run(
        ["git", "-C", str(ROOT), "archive", "-o", str(archive), rev],
        check=True,
    )
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")


def harness_runner(roots: dict[str, Path], workload: str, seconds: float):
    """``run(side, seed)``: one untraced harness run, its last stdout line."""
    def run(side: str, seed: int) -> dict:
        proc = subprocess.run(
            ["python3", str(roots[side] / "benchmarks/perf/run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=roots[side], capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            sys.exit(f"{side} seed {seed}: no result line\n{proc.stderr}")
        if proc.returncode:
            result["correct"] = False
        print(f"  seed {seed} {side:<6} " + "  ".join(
            f"{name}={m['value']:.4g}"
            for name, m in result.get("metrics", {}).items()
        ), flush=True)
        return result
    return run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision to compare")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    with tempfile.TemporaryDirectory(prefix="ab_bench_") as tmp:
        parent = Path(tmp) / "parent"
        unpack(args.parent, parent)
        run = harness_runner(
            {"parent": parent, "change": ROOT}, args.workload, args.seconds
        )
        results = run_pairs(run, args.pairs)
    print(f"\n{args.workload}: {args.pairs} pairs of {args.seconds:g} s, "
          f"parent = {args.parent}")
    print(render(results, end_to_end))
    bad = failed_runs(results)
    for line in bad:
        print(f"FAILED {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
