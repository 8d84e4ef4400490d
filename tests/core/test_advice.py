"""One advice request, three front doors (``repro.core.advice``).

``mnemo profile``, ``mnemo guard`` and the daemon's ``size`` op all
build an :class:`AdviceRequest` and call :func:`advise`; these tests
hold each door to what ``advise`` answers, and every door to the one
validator.
"""

import ast
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.cli as cli
from repro.cli import main
from repro.core.advice import AdviceRequest, advise
from repro.errors import ConfigurationError
from repro.service import GuardService, ServeConfig
from repro.service.advisor import choice_payload

#: The request every door is asked below: downsampled so a profile
#: takes milliseconds, seeded so it is reproducible.
COMMON = dict(downsample=50.0, repeats=1, seed=3)
CASES = [
    (workload, engine, slo)
    for workload in ("trending", "write_burst")
    for engine in ("redis", "memcached")
    for slo in (0.05, 0.2)
]


def argv_for(workload, engine, slo):
    return [
        "--workload", workload, "--engine", engine, "--slo", str(slo),
        "--downsample", "50", "--repeats", "1", "--seed", "3",
    ]


def report_digest(report):
    """Everything a report answers with, comparable with ``==``."""
    curve, b = report.curve, report.baselines
    return (
        report.workload, report.engine, report.pattern.mode,
        float(report.confidence), float(b.fast.throughput_ops_s),
        float(b.slow.throughput_ops_s),
        *(np.asarray(a).tobytes() for a in (
            curve.order, curve.fast_bytes, curve.cost_factor,
            curve.runtime_ns,
        )),
    )


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """A daemon watching the common request, driven in-process."""
    tmp_path = tmp_path_factory.mktemp("advice-door")
    service = GuardService(
        ServeConfig(rundir=str(tmp_path / "run"), run_id="advice", **COMMON),
        tick_fn=lambda: 0,
    )
    yield service
    service._plane.close()


@pytest.fixture
def small_csvs(tmp_path):
    from repro.ycsb import generate_trace, save_trace_csv, workload_by_name

    trace = generate_trace(
        workload_by_name("trending").scaled(n_keys=100, n_requests=1_000)
    )
    return save_trace_csv(trace, tmp_path)


class TestThreeDoorsOneAnswer:
    @pytest.mark.parametrize("workload, engine, slo", CASES)
    def test_cli_profile_prints_the_advice(self, capsys, workload, engine,
                                           slo):
        assert main(["profile", *argv_for(workload, engine, slo)]) == 0
        printed = capsys.readouterr().out
        request = AdviceRequest(
            workload=workload, engine=engine, slo=slo, **COMMON,
        )
        assert printed == advise(request).summary() + "\n"

    @pytest.mark.parametrize("workload, engine, slo", CASES)
    def test_socket_size_is_the_advice_choice(self, service, workload,
                                              engine, slo):
        reply = service._control(
            {"op": "size", "workload": workload, "engine": engine,
             "slo": slo},
        )
        assert reply["ok"], reply
        advice = advise(AdviceRequest(
            workload=workload, engine=engine, slo=slo, **COMMON,
        ))
        assert reply["choice"] == choice_payload(advice.choice)
        assert reply["fastmem_only_ops_s"] == float(
            advice.report.baselines.fast.throughput_ops_s
        )

    @pytest.mark.parametrize("workload, engine, slo", CASES[::3])
    def test_guard_plans_on_the_advice_report(self, monkeypatch, capsys,
                                              workload, engine, slo):
        from repro.guard.loop import GuardLoop

        planned = []
        run = GuardLoop.run

        def spy(self, report, *args, **kwargs):
            planned.append(report)
            return run(self, report, *args, **kwargs)

        monkeypatch.setattr(GuardLoop, "run", spy)
        code = main(["guard", *argv_for(workload, engine, slo),
                     "--no-validate"])
        assert code in (0, 1, 3)
        assert "guard — workload" in capsys.readouterr().out
        advice = advise(AdviceRequest(
            workload=workload, engine=engine, slo=slo, **COMMON,
        ))
        assert [report_digest(r) for r in planned] == [
            report_digest(advice.report)
        ]

    def test_weight_mode_profiles_with_mnemot(self, small_csvs, capsys):
        from repro.core.mnemot import MnemoT

        req, data = map(str, small_csvs)
        request = AdviceRequest(requests=req, dataset=data, mode="weight",
                                repeats=1)
        advice = advise(request)
        assert isinstance(advice.consultant, MnemoT)
        assert advice.report.pattern.mode == "weight"
        assert main(["profile", "--requests", req, "--dataset", data,
                     "--mode", "weight", "--repeats", "1"]) == 0
        assert capsys.readouterr().out == advice.summary() + "\n"


class TestOneValidator:
    @pytest.mark.parametrize("field, value", [
        # the TestServeConfig list, request fields only ...
        ("slo", "x"), ("slo", 0), ("slo", 1.5), ("slo", [0.1]),
        ("slo", True), ("slo", float("nan")),
        ("repeats", 0), ("repeats", "3"), ("repeats", 2.0),
        ("downsample", -1), ("downsample", "20"),
        ("seed", "7"), ("seed", 1.5),
        ("workload", 5), ("workload", ""),
        ("engine", "nope"), ("engine", ["redis"]),
        # ... plus a negative seed and the fields only the CLI sets
        ("seed", -5), ("p", 0), ("p", 1.0), ("mode", "nope"),
    ])
    def test_bad_field_is_refused_naming_it_first(self, field, value):
        with pytest.raises(ConfigurationError, match=f"^{field} must be"):
            AdviceRequest(**{"workload": "trending", field: value})

    def test_one_source_of_requests(self):
        with pytest.raises(ConfigurationError, match="^workload "):
            AdviceRequest()
        with pytest.raises(ConfigurationError, match="^workload "):
            AdviceRequest(workload="trending", requests="r.csv",
                          dataset="d.csv")
        with pytest.raises(ConfigurationError, match="^dataset "):
            AdviceRequest(requests="r.csv")
        with pytest.raises(ConfigurationError, match="built-in workloads"):
            AdviceRequest(requests="r.csv", dataset="d.csv", downsample=4)

    def test_every_preset_is_a_workload(self):
        from repro.ycsb.presets import EXTRA_WORKLOADS, TABLE_III_WORKLOADS

        for spec in (*TABLE_III_WORKLOADS, *EXTRA_WORKLOADS):
            assert AdviceRequest(workload=spec.name).workload == spec.name

    def test_defaults_are_the_papers(self):
        from repro.core.slo import DEFAULT_MAX_SLOWDOWN
        from repro.cost.model import DEFAULT_PRICE_FACTOR

        defaults = {f.name: f.default for f in fields(AdviceRequest)}
        assert defaults["slo"] == DEFAULT_MAX_SLOWDOWN
        assert defaults["p"] == DEFAULT_PRICE_FACTOR

    def test_importing_the_request_loads_no_numpy(self):
        src = Path(repro.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.core.advice; print('numpy' in sys.modules)"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]

    def test_each_flag_is_declared_once_with_the_dataclass_default(self):
        defaults = {f.name: f.default for f in fields(AdviceRequest)}
        source = Path(cli.__file__).read_text(encoding="utf-8")
        literal_flags = [
            arg.value
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", "") == "add_argument"
            for arg in node.args if isinstance(arg, ast.Constant)
        ]
        assert not set(literal_flags) & {f"--{name}" for name in defaults}

        (subparsers,) = [
            a for a in cli._build_parser()._actions
            if a.dest == "command"
        ]
        seen = set()
        for command, parser in subparsers.choices.items():
            for action in parser._actions:
                if action.dest not in defaults:
                    continue
                seen.add(action.dest)
                assert action.option_strings == [f"--{action.dest}"]
                if action.dest == "workload":
                    # which workload a command studies is its own call:
                    # none (profile), required, or a named preset
                    assert (action.default is None or action.required
                            or AdviceRequest(workload=action.default))
                else:
                    assert action.default == defaults[action.dest], command
        assert seen == set(defaults)


class TestDoorErrors:
    """Each door refuses what the request refuses, before any work."""

    def assert_usage_error(self, capsys, argv, *fragments):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
        for fragment in fragments:
            assert fragment in lines[0]

    @pytest.mark.parametrize("command", ["profile", "guard"])
    def test_negative_seed(self, capsys, command):
        """Once numpy's ValueError traceback, from deep in the profile."""
        self.assert_usage_error(
            capsys, [command, "--workload", "trending", "--seed", "-5"],
            "--seed",
        )

    @pytest.mark.parametrize("command", ["profile", "guard"])
    def test_zero_slo_as_the_socket_refuses_it(self, capsys, command):
        """``profile --slo 0`` once answered what the socket refused."""
        self.assert_usage_error(
            capsys, [command, "--workload", "trending", "--slo", "0"],
            "--slo must be a number in (0, 1)",
        )

    def test_sweep_negative_seed_fails_before_any_attempt(self, capsys):
        """Once three failed attempts per cell, then exit 1."""
        self.assert_usage_error(
            capsys, ["sweep", "--workloads", "trending", "--seed", "-5"],
            "seed",
        )

    def test_clients_refuse_a_negative_seed(self):
        from repro.runner.spec import ClientConfig
        from repro.ycsb.client import YCSBClient

        with pytest.raises(ConfigurationError, match="seed"):
            YCSBClient(seed=-5)
        with pytest.raises(ConfigurationError, match="seed"):
            ClientConfig(seed=-5)

    def test_reload_negative_seed_is_reload_failed(self, service):
        """Once a ``ValueError`` that escaped ``_control``."""
        reply = service._control({"op": "reload", "seed": -5})
        assert reply["error"] == "reload_failed"
        assert "seed" in reply["detail"]
        assert service.generation == 0

    def test_downsample_over_csv_is_refused(self, capsys, small_csvs):
        """Once silently ignored, and not range-checked."""
        req, data = map(str, small_csvs)
        csv = ["profile", "--requests", req, "--dataset", data]
        self.assert_usage_error(
            capsys, [*csv, "--downsample", "4"],
            "--downsample", "built-in workloads only",
        )
        self.assert_usage_error(
            capsys, [*csv, "--downsample", "-2"],
            "--downsample must be a number >= 0",
        )

    def test_serve_watches_any_builtin_workload(self, tmp_path, capsys):
        """``serve`` once took Table III names only."""

        def serve(workload, rundir):
            return ["serve", "--workload", workload, "--no-supervise",
                    "--max-ticks", "1", "--interval", "0.01",
                    "--validate-every", "0", "--downsample", "50",
                    "--repeats", "1", "--rundir", str(rundir)]

        assert main(serve("write_burst", tmp_path / "run")) == 0
        self.assert_usage_error(
            capsys, serve("nope", tmp_path / "other"), "--workload",
        )
        assert not (tmp_path / "other").exists()
