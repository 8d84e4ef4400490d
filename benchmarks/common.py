"""Reporting helpers shared by the benchmark files.

Every bench regenerates one of the paper's tables or figures and prints
it in a paper-comparable layout (run pytest with ``-s`` to see the
tables inline); the same text is also written to ``benchmarks/out/``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

from repro.store import SQLiteStore

OUT_DIR = Path(__file__).parent / "out"

#: Shared content-addressed result store for the whole benchmark suite —
#: Fig 5/8/9 benches profile the same (workload, engine) baselines, so
#: the first bench to measure one pays for it and the rest recall it
#: bit-identically.  ``make clean`` removes the file.
STORE_PATH = Path(__file__).resolve().parent.parent / "mnemo.db"


def shared_cache() -> SQLiteStore:
    """The benchmark suite's shared result store."""
    return SQLiteStore(STORE_PATH)


def emit(experiment_id: str, lines: Iterable[str]) -> str:
    """Print a result block and persist it to ``benchmarks/out/``."""
    text = "\n".join([f"== {experiment_id} ==", *lines, ""])
    print("\n" + text)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{experiment_id}.txt").write_text(text)
    return text


def write_summary(stem: str, summary: dict, committed: Path) -> None:
    """Persist a speed gate's summary JSON.

    Every run writes ``benchmarks/out/<stem>.json``; only a full-mode
    run refreshes *committed*, the ``BENCH_*.json`` at the repo root — a
    smoke run (``MNEMO_BENCH_SMOKE=1``, what ``make verify`` and the
    ``make bench-*`` targets do) checks its floors and leaves the
    committed full-mode numbers alone.
    """
    payload = json.dumps(summary, indent=2)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{stem}.json").write_text(payload)
    if summary["mode"] == "full":
        committed.write_text(payload + "\n")


def table(headers: Sequence[str], rows: Iterable[Sequence[object]],
          fmt: str = "{:>14}") -> list[str]:
    """Fixed-width text table."""
    def render(cells):
        return " ".join(fmt.format(str(c)) for c in cells)

    out = [render(headers)]
    out.append("-" * len(out[0]))
    out.extend(render(r) for r in rows)
    return out


def pct(x: float, digits: int = 1) -> str:
    """Format a fraction as a percentage string."""
    return f"{100 * x:.{digits}f}%"
