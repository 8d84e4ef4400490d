#!/usr/bin/env python
"""Print what importing a module costs, from ``python -X importtime``.

    PYTHONPATH=src python tools/import_report.py [MODULE]

MODULE defaults to ``repro.cli``.  The import runs in a fresh
interpreter; the report rolls self time up by top-level package, lists
the 15 costliest modules and counts the ``repro.*`` modules loaded.
Informational only — the gate on the import surface is
``tests/test_import_surface.py``, which compares module sets and so
cannot flake on a slow host.
"""

from __future__ import annotations

import re
import subprocess
import sys
from collections import Counter

_LINE = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \| +(\S+)$")
TOP = 15


def self_times_us(module: str) -> dict[str, int]:
    """Self import time in microseconds of every module *module* loads."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", f"import {module}"],
        capture_output=True, text=True,
    )
    if proc.returncode:
        sys.exit(proc.stderr.strip().splitlines()[-1])
    return {
        m.group(2): int(m.group(1))
        for m in map(_LINE.match, proc.stderr.splitlines()) if m
    }


def render(module: str, times: dict[str, int]) -> str:
    """The report for one ``self_times_us`` result."""
    total = sum(times.values())
    by_package: Counter[str] = Counter()
    for name, us in times.items():
        by_package[name.partition(".")[0]] += us
    lines = [
        f"import {module}: {total / 1e3:.1f} ms self time over "
        f"{len(times)} modules, "
        f"{sum(name.split('.')[0] == 'repro' for name in times)} of them "
        f"repro.*",
        "",
        "by top-level package:",
    ]
    lines += [
        f"  {us / 1e3:8.1f} ms  {us / total:5.1%}  {package}"
        for package, us in by_package.most_common(TOP)
    ]
    lines += ["", f"{TOP} costliest modules (self time):"]
    lines += [
        f"  {us / 1e3:8.1f} ms  {name}"
        for name, us in Counter(times).most_common(TOP)
    ]
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    module = argv[1] if len(argv) > 1 else "repro.cli"
    print(render(module, self_times_us(module)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
