"""Self-tests of the perf harness (``pytest benchmarks/perf``).

Not part of tier-1 (``testpaths = ["tests"]``); under
``pytest benchmarks/ --benchmark-only`` pytest-benchmark skips them,
as none uses the ``benchmark`` fixture.
"""

import json
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

import compare  # noqa: E402
import harness  # noqa: E402
import metrics  # noqa: E402
from harness import Span, Tracer  # noqa: E402


# -- the percentile / sample-count rule -------------------------------------------


def test_percentile_interpolates():
    assert harness.percentile([1, 2, 3, 4, 5], 50.0) == 3
    assert harness.percentile([10, 20], 50.0) == 15
    assert harness.percentile([7], 90.0) == 7


@pytest.mark.parametrize("n, q, reported", [
    (99, 90.0, False),    # 9.9 samples beyond p90
    (100, 90.0, True),    # exactly ten
    (999, 99.0, False),
    (1000, 99.0, True),
    (20, 50.0, True),
    (19, 50.0, False),
])
def test_tail_needs_ten_samples_beyond(n, q, reported):
    value = harness.tail_percentile(list(range(n)), q)
    assert (value is not None) == reported


def test_relative_spread_matches_statistics_quantiles():
    import statistics

    values = [10.0, 11.0, 9.5, 10.2, 10.4, 9.9, 10.1, 10.3, 9.8, 10.6]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert harness.relative_spread(values) == pytest.approx((q3 - q1) / med)
    assert harness.relative_spread([5.0]) == 0.0


# -- span self-time arithmetic ------------------------------------------------------


def test_self_time_is_duration_minus_direct_children():
    tracer = Tracer()
    tracer.spans = [
        Span(1, None, "op", 0.0, 10.0, op=0),
        Span(2, 1, "core", 1.0, 9.0, op=0),
        Span(3, 2, "kernel", 2.0, 5.0, op=0, counts={"requests": 7}),
        Span(4, 2, "kernel", 5.0, 6.0, op=0, counts={"requests": 3}),
        Span(5, 3, "cache", 2.5, 4.5, op=0),
    ]
    table = tracer.self_times()
    assert table["op"]["self_s"] == pytest.approx(2.0)
    assert table["core"]["self_s"] == pytest.approx(4.0)   # 8 - (3 + 1)
    assert table["kernel"]["self_s"] == pytest.approx(2.0)  # (3 - 2) + 1
    assert table["kernel"]["calls"] == 2
    assert table["kernel"]["counts"] == {"requests": 10}
    assert table["cache"]["self_s"] == pytest.approx(2.0)
    # self times of a tree add up to the root's duration
    assert sum(r["self_s"] for r in table.values()) == pytest.approx(10.0)


def test_spans_nest_and_instrument_restores():
    mod = types.ModuleType("toy")

    class Layer:
        def work(self, n):
            return mod.leaf(n) + 1

        @classmethod
        def build(cls):
            return cls()

    def leaf(n):
        return n * 2

    mod.leaf = leaf
    tracer = Tracer()
    tracer.instrument(Layer, "work", "layer.work")
    tracer.instrument(Layer, "build", "layer.build")
    tracer.instrument(mod, "leaf", "layer.leaf",
                      count=lambda a, k, out: {"units": out})
    with tracer.span("op", op=4):
        assert Layer.build().work(5) == 11
    by_name = {sp.name: sp for sp in tracer.spans}
    assert by_name["layer.work"].parent == by_name["op"].id
    assert by_name["layer.leaf"].parent == by_name["layer.work"].id
    assert by_name["layer.leaf"].op == 4          # inherited from the op
    assert by_name["layer.leaf"].counts == {"units": 10}

    tracer.enabled = False                        # wrappers become plain calls
    seen = len(tracer.spans)
    assert Layer().work(1) == 3 and len(tracer.spans) == seen

    tracer.restore()
    assert mod.leaf is leaf and "work" in Layer.__dict__
    assert not hasattr(Layer.work, "__wrapped__")


# -- the load generator ---------------------------------------------------------------


def test_closed_loop_counts_failures_and_checks():
    def op(i, item):
        if item == "boom":
            raise ValueError("nope")
        return item

    records = harness.closed_loop(
        op, lambda i, item, out: "wrong" if out == "bad" else None,
        ["ok", "bad", "boom"], seconds=60.0, max_ops=6,
    )
    assert [r.index for r in records] == list(range(6))
    assert [r.error is None for r in records] == [True, False, False] * 2
    assert records[2].error.startswith("ValueError")


def test_closed_loop_two_callers_share_the_schedule():
    records = harness.closed_loop(
        lambda i, item: item, lambda i, item, out: None,
        list(range(5)), seconds=60.0, threads=2, max_ops=40,
        prepare=lambda i, item: item * 10,
    )
    assert sorted(r.index for r in records) == list(range(40))


def test_a_slow_spell_shorter_than_half_a_run_moves_no_metric():
    import run

    def part(ms):  # four ok ops of *ms* each, one caller
        return types.SimpleNamespace(ok_ops=4, busy_s=4 * ms / 1e3,
                                     cpu_s=4 * ms / 2e3)

    laps = [100.0] * 12 + [250.0] * 8  # two of the five parts 2.5x slow
    wl = types.SimpleNamespace(threads=1, schedule=[None],
                               kind=lambda item: None)
    measured = types.SimpleNamespace(
        records=[harness.OpRecord(i, ms / 1e3) for i, ms in enumerate(laps)],
        segments=[part(100.0)] * 3 + [part(250.0)] * 2, samples={},
    )
    out = run.end_to_end(wl, measured, setup_s=1.0)
    assert out["ops_per_s"]["value"] == pytest.approx(10.0)
    assert out["op_p50_ms"]["value"] == pytest.approx(100.0)
    assert out["cpu_s_per_op"]["value"] == pytest.approx(0.05)


# -- leaving no process behind ----------------------------------------------------------


def test_reap_children_waits_for_orphans_that_ignore_sigterm():
    # in a process of its own, so that pytest's children are left alone:
    # a child starts a grandchild that ignores SIGTERM, then exits
    sleeper = ("import signal, time; "
               "signal.signal(signal.SIGTERM, signal.SIG_IGN); time.sleep(60)")
    script = f"""
import subprocess, sys, time
sys.path.insert(0, {str(HERE)!r})
import harness
harness.adopt_orphans()
subprocess.Popen([sys.executable, "-c",
    "import subprocess, sys; subprocess.Popen([sys.executable, '-c', {sleeper!r}])"])
time.sleep(0.5)
print(harness.reap_children(grace_s=0.4), harness.children_of(harness.os.getpid()))
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split(None, 1) == ["2", "[]\n"]


# -- compare.py verdicts -----------------------------------------------------------------


@pytest.mark.parametrize("better, base, new, want", [
    ("lower", [100, 101, 99, 100], [100.5, 101, 100, 99.5], "unchanged"),
    ("lower", [100, 101, 99, 100], [115, 116, 114, 115], "worse"),
    ("lower", [100, 101, 99, 100], [80, 81, 79, 80], "better"),
    ("higher", [50, 51, 49, 50], [40, 41, 39, 40], "worse"),
    ("higher", [50, 51, 49, 50], [60, 61, 59, 60], "better"),
    # medians agree but both sides scatter more than the bound
    ("lower", [80, 120, 100, 90, 110], [85, 118, 100, 92, 108], "unresolved"),
    # within the bound, yet every new run beats every base run
    ("lower", [100, 100.5, 101, 100.2], [95, 95.5, 96, 95.2], "better"),
])
def test_verdicts(better, base, new, want):
    assert compare.judge(better, base, new, 0.10, None)["verdict"] == want


def test_absolute_bounds():
    # fail_ratio: any increase is worse
    assert compare.judge("lower", [0.0], [0.01], None, 0.0)["verdict"] == "worse"
    assert compare.judge("lower", [0.0], [0.0], None, 0.0)["verdict"] == "unchanged"
    # accuracy: +0.05 percentage points allowed
    assert compare.judge("lower", [0.02], [0.06], None, 0.05)["verdict"] == "unchanged"
    assert compare.judge("lower", [0.02], [0.08], None, 0.05)["verdict"] == "worse"


def test_every_ratio_comes_with_its_base():
    row = compare.judge("lower", [200.0, 202.0], [210.0, 212.0], 0.10, None)
    assert row["base"] == pytest.approx(201.0)
    assert row["ratio"] == pytest.approx(211.0 / 201.0)


# -- the contract ---------------------------------------------------------------------------


def test_benchmark_json_is_the_projection_of_the_metric_table():
    on_disk = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert on_disk == metrics.contract()


def test_contract_limits():
    doc = metrics.contract()
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert 2 <= len(doc["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert len(doc["per_layer"]) <= 128
    assert set(metrics.DRIVER_WORKLOADS) <= set(metrics.WORKLOADS)
    # the driver's time cap, with 8 s a run for calibration, set-ups and checks
    runs = 4 + 22 * len(doc["workloads"])
    assert 1 <= doc["run_seconds"] <= 60
    assert runs * (doc["run_seconds"] + 8) <= 3420


# -- seed -> identical generated inputs --------------------------------------------------------


def test_derive_is_stable_and_label_sensitive():
    assert harness.derive(1, "client") == harness.derive(1, "client")
    assert harness.derive(1, "client") != harness.derive(2, "client")
    assert harness.derive(1, "client") != harness.derive(1, "order")


def test_same_seed_same_inputs(tmp_path):
    import workloads

    def fingerprint(name, seed):
        wl = workloads.BY_NAME[name](seed, tmp_path)
        if name == "serve_heavy":
            return json.dumps(
                [wl.first_touch, wl.prepare(3, "validate"), wl.prepare(4, "drift")]
            )
        return repr(wl.schedule) + repr(getattr(wl, "specs", ""))

    for name in workloads.BY_NAME:
        assert fingerprint(name, 7) == fingerprint(name, 7), name
        assert fingerprint(name, 7) != fingerprint(name, 8), name
