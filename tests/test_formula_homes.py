"""Mnemo's formulas stay written once.

Scans the code of ``src/repro`` (strings and comments blanked, so a
docstring may quote a formula) for each formula's spelling and fails
when one appears outside its home module: a caller reads the home's
function instead of deriving the formula again.
"""

import ast
import functools
import io
import re
import tokenize
from pathlib import Path

import pytest

import repro

PACKAGE = Path(repro.__file__).resolve().parent

#: name -> (pattern, home module relative to the package)
RULES = {
    # MnemoT's order, accesses / size descending: core.pattern.weight_order
    "weight_order": (r"argsort\(-\(", "core/pattern.py"),
    # a count over a trace's key column: Trace.per_key_counts and
    # Trace.access_counts
    "per_key_count": (r"bincount\(\s*\w+\.keys\b", "ycsb/workload.py"),
    # the contention factor: YCSBClient.pass_scale
    "pass_scale": (r"\b1\s*\+\s*[\w.]*contention\b", "ycsb/client.py"),
    # the cost law: R(p)'s (total - fast) * p and the N-tier price sum
    # (shares * prices).sum(): cost.model
    "cost_law": (
        r"\(\s*\w*total\w*\s*-\s*\w*fast\w*\s*\)\s*\*"
        r"|\*\s*[\w.]*price\w*(?:\(\))?\s*\)\s*\.sum\(",
        "cost/model.py",
    ),
    # latency + bytes / bandwidth: memsim.timing.service_times_ns
    "service_time": (
        r"\b\w*lat\w*\s*\+\s*(?:float\()?[\w.]+\)?\s*/\s*"
        r"[\w.]*(?:bytes_per_ns|bpns|bandwidth\w*)\b",
        "memsim/timing.py",
    ),
}

#: (rule, module, enclosing qualname or None for the whole module) ->
#: why that spelling is not a re-derivation of the home's formula
ALLOWED = {
    ("service_time", "core/sensitivity.py", "estimate_counterpart._retime"):
        "inverts the law on one measured average to recover the bytes a "
        "request touched, then applies it on the other node: scalars "
        "derived from a RunResult, not an engine's key space",
    ("service_time", "memsim/node.py", "MemoryNode.access_time_ns"):
        "the bare device term of one node, with no engine profile: what "
        "the instrumented comparator's microbenchmark measures",
    ("service_time", "baselines/instrumented.py",
     "MicrobenchBaselines.device_time_ns"):
        "the comparator's microbenchmark model: device time only, the "
        "engine CPU and passes deliberately invisible to it",
    ("service_time", "baselines/instrumented.py",
     "InstrumentedProfiler.predict_runtime_ns"):
        "the same microbenchmark model summed over a trace: its error "
        "against the real law is what the baseline ablation measures",
    ("service_time", "kvstore/storage.py", None):
        "the storage-backed store prices a disk tier with its own law, "
        "outside the two-node model",
}


def code_only(source: str) -> str:
    """*source* with every string and comment blanked, lines kept."""
    lines = source.splitlines(keepends=True)
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.STRING, tokenize.COMMENT):
            continue
        (r0, c0), (r1, c1) = tok.start, tok.end
        for row in range(r0, r1 + 1):
            line = lines[row - 1]
            lo = c0 if row == r0 else 0
            hi = c1 if row == r1 else len(line.rstrip("\n"))
            lines[row - 1] = line[:lo] + " " * (hi - lo) + line[hi:]
    return "".join(lines)


def enclosing(tree: ast.Module, lineno: int) -> str | None:
    """Qualified name of the innermost def/class holding *lineno*."""
    best, name = None, None

    def walk(node, prefix):
        nonlocal best, name
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qual = f"{prefix}{child.name}"
                if child.lineno <= lineno <= child.end_lineno and (
                    best is None or child.lineno >= best
                ):
                    best, name = child.lineno, qual
                walk(child, qual + ".")
            else:
                walk(child, prefix)

    walk(tree, "")
    return name


@functools.cache
def package_sources() -> tuple[tuple[str, str, ast.Module], ...]:
    """``(module, code_only(source), tree)`` per file, parsed once a run."""
    out = []
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        module = path.relative_to(PACKAGE).as_posix()
        out.append((module, code_only(source), ast.parse(source)))
    return tuple(out)


def occurrences(rule: str):
    """``(module, qualname, line)`` of every spelling of *rule*."""
    pattern = re.compile(RULES[rule][0])
    for module, code, tree in package_sources():
        for match in pattern.finditer(code):
            line = code.count("\n", 0, match.start()) + 1
            yield module, enclosing(tree, line), line


@pytest.mark.parametrize("rule", sorted(RULES))
def test_written_once(rule):
    home = RULES[rule][1]
    found = list(occurrences(rule))
    stray = [
        f"{module}:{line} ({qual})" for module, qual, line in found
        if module != home
        and (rule, module, qual) not in ALLOWED
        and (rule, module, None) not in ALLOWED
    ]
    assert stray == [], f"{rule} re-derived outside {home}"
    assert any(module == home for module, _, _ in found), (
        f"{rule} no longer lives in {home}"
    )


def test_every_allowance_is_used():
    used = set()
    for rule in RULES:
        for module, qual, _ in occurrences(rule):
            used.update({(rule, module, qual), (rule, module, None)})
    assert set(ALLOWED) <= used


def test_the_scan_sees_code_not_prose():
    code = code_only('x = 1  # argsort(-(a)\ny = """1 + contention"""\n')
    assert "argsort" not in code and "contention" not in code
    assert code.count("\n") == 2
