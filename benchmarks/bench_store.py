"""SQLite store vs file-tree cache: warm-read overhead gate.

``--store`` replaces per-entry files with one WAL database; durability
must not tax the hot path.  Both backends persist the *same* encoded
envelopes (the :mod:`repro.runner.cache` codecs), so this bench
populates each with an identical corpus of results, asserts every entry
reads back equal from both, then times the warm-read sweep — the
operation a resumed or cached sweep performs once per experiment — and
gates the ratio against ``READ_RATIO_CEILING`` (sqlite may cost at most
1.2x the file tree).  Write throughput and a cold-open read are
recorded for the record but not gated: writes are once-per-experiment
and dominated by measurement time.

Wall-clocks are best-of-N with read rounds interleaved between the
backends (same machine-drift exposure), and the summary JSON lands in
``benchmarks/out/`` and — full mode only — at ``BENCH_store.json`` in
the repo root.  ``MNEMO_BENCH_SMOKE=1`` shrinks the corpus for the
smoke target.
"""

import os
import tempfile
import time
from pathlib import Path

from common import emit, table, write_summary

from repro.runner.cache import ResultCache
from repro.store import SQLiteStore
from repro.ycsb.client import RunResult

SMOKE = os.environ.get("MNEMO_BENCH_SMOKE", "") not in ("", "0")

N_ENTRIES = 200 if SMOKE else 1_000
ROUNDS = 5
#: Warm reads from the SQLite store may cost at most this multiple of
#: the v2 file-tree cache.
READ_RATIO_CEILING = 1.2

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_store.json"


def _corpus(n):
    """*n* distinct, deterministic (fingerprint, RunResult) pairs."""
    out = []
    for i in range(n):
        out.append((
            f"fp-{i:06d}",
            RunResult(
                workload=f"w{i % 7}", engine="redis",
                n_requests=1_000 + i, n_reads=600 + i, n_writes=400,
                runtime_ns=1.5e8 + i * 1e3,
                avg_read_ns=1200.5 + i, avg_write_ns=1500.25 + i,
                latency_percentiles_ns={
                    50.0: 900.0 + i, 95.0: 2500.5 + i, 99.0: 4000.125 + i,
                },
                repeats=3, runtime_std_ns=12.5, concurrency=2,
            ),
        ))
    return out


def _timed_writes(put, corpus):
    t0 = time.perf_counter()
    for fingerprint, result in corpus:
        put(fingerprint, result)
    return time.perf_counter() - t0


def _paired_reads(cache, store, corpus, rounds):
    """Best-of-N warm-read sweeps, file/sqlite rounds interleaved."""
    fingerprints = [fp for fp, _ in corpus]
    t_file = t_sql = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for fp in fingerprints:
            cache.get_result(fp)
        t_file = min(t_file, time.perf_counter() - t0)
        t0 = time.perf_counter()
        for fp in fingerprints:
            store.get_result(fp)
        t_sql = min(t_sql, time.perf_counter() - t0)
    return t_file, t_sql


def run():
    corpus = _corpus(N_ENTRIES)
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(Path(tmp) / "cache")
        store = SQLiteStore(Path(tmp) / "store.db")
        write_file_s = _timed_writes(cache.put_result, corpus)
        write_sql_s = _timed_writes(store.put_result, corpus)

        # both backends must hold the identical corpus before timing
        for fingerprint, result in corpus:
            a = cache.get_result(fingerprint)
            b = store.get_result(fingerprint)
            assert a == b == result, f"backends disagree on {fingerprint}"

        read_file_s, read_sql_s = _paired_reads(cache, store, corpus, ROUNDS)

        # cold open: close, reopen, one full read sweep (WAL recovery path)
        store.close()
        store = SQLiteStore(Path(tmp) / "store.db")
        t0 = time.perf_counter()
        for fingerprint, _ in corpus:
            store.get_result(fingerprint)
        cold_sql_s = time.perf_counter() - t0
        store.close()

    ratio = read_sql_s / read_file_s
    return {
        "mode": "smoke" if SMOKE else "full",
        "n_entries": N_ENTRIES,
        "write_s": {
            "file": round(write_file_s, 4), "sqlite": round(write_sql_s, 4),
        },
        "warm_read_s": {
            "file": round(read_file_s, 4), "sqlite": round(read_sql_s, 4),
        },
        "cold_read_sqlite_s": round(cold_sql_s, 4),
        "warm_read_ratio": round(ratio, 4),
        "floors": {"read_ratio_ceiling": READ_RATIO_CEILING},
    }


def test_store_read_overhead(benchmark):
    r = benchmark.pedantic(run, rounds=1, iterations=1)

    write_summary("store", r, RESULT_PATH)

    w, rd = r["write_s"], r["warm_read_s"]
    emit("store", table(
        ["op", "file cache", "sqlite store"],
        [
            (f"write x{r['n_entries']}", f"{w['file']:.3f}s",
             f"{w['sqlite']:.3f}s"),
            (f"warm read x{r['n_entries']}", f"{rd['file']:.3f}s",
             f"{rd['sqlite']:.3f}s"),
        ],
        fmt="{:>14}",
    ) + [
        f"warm-read ratio: {r['warm_read_ratio']:.2f}x "
        f"(ceiling {READ_RATIO_CEILING:.1f}x)",
        f"cold sqlite read sweep: {r['cold_read_sqlite_s']:.3f}s",
        f"summary JSON at benchmarks/out/store.json (mode={r['mode']})",
    ])

    assert r["warm_read_ratio"] <= READ_RATIO_CEILING, (
        f"sqlite warm reads cost {r['warm_read_ratio']:.2f}x the file "
        f"cache, over the {READ_RATIO_CEILING:.1f}x ceiling"
    )
