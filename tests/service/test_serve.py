"""Tests for the guard service: config, socket API, supervision, signals.

The in-process tests drive :class:`~repro.service.GuardService` with an
injected tick function (no simulator work), so the loop/socket/journal
machinery is exercised in milliseconds; one subprocess test proves the
real ``mnemo serve`` process dies gracefully on SIGTERM.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import telemetry
from repro.errors import ConfigurationError
from repro.service import (
    GuardService,
    RestartPolicy,
    ServeConfig,
    Supervisor,
    TerminationSignal,
    control_call,
    handle_termination,
    run_service,
)
from repro.store import SQLiteStore


def _wait_for(predicate, timeout_s=30.0, interval_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


class TestServeConfig:
    def test_defaults_are_valid(self):
        config = ServeConfig()
        assert config.heartbeat_path.name == "heartbeat.json"
        assert config.socket_path.name == "control.sock"

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(ConfigurationError, match="interval_s"):
            ServeConfig(interval_s=0)

    def test_negative_validate_every_rejected(self):
        with pytest.raises(ConfigurationError, match="validate_every"):
            ServeConfig(validate_every=-1)

    @pytest.mark.parametrize("field, value", [
        ("slo", "x"), ("slo", 0), ("slo", 1.5), ("slo", [0.1]),
        ("slo", True), ("slo", float("nan")),
        ("repeats", 0), ("repeats", "3"), ("repeats", 2.0),
        ("downsample", -1), ("downsample", "20"),
        ("seed", "7"), ("seed", 1.5),
        ("workload", 5), ("workload", ""),
        ("engine", "nope"), ("engine", ["redis"]),
        ("interval_s", "1"), ("validate_every", 1.5), ("deadline_s", "30"),
    ])
    def test_mistyped_or_out_of_range_field_names_itself(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ServeConfig(**{field: value})

    def test_engine_names_are_the_advisors_table(self):
        from repro.core.advice import ENGINES
        from repro.kvstore.profiles import builtin_profiles

        assert set(ENGINES) == set(builtin_profiles())
        for name in ENGINES:
            assert ServeConfig(engine=name).request.engine == name


class TestReloadValidation:
    """A reload that would install a broken config is refused whole."""

    @pytest.fixture(scope="class")
    def service(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("reload")
        service = GuardService(
            ServeConfig(
                rundir=str(tmp_path / "run"), run_id="test-reload",
                downsample=50.0, repeats=1, interval_s=0.1, validate_every=0,
            ),
            tick_fn=lambda: 0,
        )
        yield service
        service._plane.close()

    @pytest.mark.parametrize("override", [
        {"slo": "x"}, {"slo": 0}, {"slo": 1.5}, {"slo": [0.1]},
        {"repeats": 0}, {"repeats": "3"}, {"engine": "nope"},
    ])
    def test_bad_reload_moves_nothing(self, service, override):
        """At PR 22 ``{"op": "reload", "slo": "x"}`` answered ``ok`` with
        generation 1 and every later default ``size`` failed."""
        before = service._control({"op": "size"})
        assert before["ok"]
        reply = service._control({"op": "reload", **override})
        assert reply["ok"] is False, reply
        assert reply["error"] == "reload_failed"
        (field,) = override
        assert field in reply["detail"]
        assert service.generation == before["generation"] == 0
        after = service._control({"op": "size"})
        assert after["ok"] and after["choice"] == before["choice"]
        assert after["slo"] == before["slo"]


class TestGuardServiceLoop:
    def _config(self, tmp_path, **kwargs):
        kwargs.setdefault("interval_s", 0.01)
        kwargs.setdefault("rundir", str(tmp_path / "run"))
        kwargs.setdefault("run_id", "test-serve")
        return ServeConfig(**kwargs)

    def test_max_ticks_bounds_the_run(self, tmp_path):
        codes = iter([0, 1, 3])
        service = GuardService(
            self._config(tmp_path), tick_fn=lambda: next(codes),
        )
        assert service.run(max_ticks=3) == 0
        assert service.ticks == 3
        assert service.last_exit_code == 3

    def test_heartbeat_written_and_stamped_stopped(self, tmp_path):
        config = self._config(tmp_path)
        service = GuardService(config, tick_fn=lambda: 0)
        service.run(max_ticks=2)
        doc = json.loads(config.heartbeat_path.read_text())
        assert doc["status"] == "stopped"
        assert doc["ticks"] == 2
        assert doc["pid"] == os.getpid()
        assert doc["run_id"] == "test-serve"
        # the socket never outlives the service
        assert not config.socket_path.exists()

    def test_ticks_journaled_to_injected_store(self, tmp_path):
        store = SQLiteStore(tmp_path / "s.db")
        try:
            config = self._config(tmp_path)
            service = GuardService(config, tick_fn=lambda: 0, store=store)
            service.run(max_ticks=2)
            kinds = [
                e.kind for e in store.oplog.entries("test-serve")
            ]
            assert kinds == [
                "service_started", "guard_tick", "guard_tick",
                "service_stopped",
            ]
            ticks = store.oplog.entries("test-serve", kind="guard_tick")
            assert [e.payload["n"] for e in ticks] == [1, 2]
            assert ticks[0].payload["exit_code"] == 0
        finally:
            store.close()  # injected stores stay open: service must not close

    def test_control_dispatch(self, tmp_path):
        service = GuardService(self._config(tmp_path), tick_fn=lambda: 0)
        assert service._control(None)["ok"] is False
        assert service._control({})["ok"] is False
        assert service._control({"op": "nope"})["ok"] is False
        ping = service._control({"op": "ping"})
        assert ping["ok"] and ping["pid"] == os.getpid()
        status = service._control({"op": "status"})
        assert status["ok"] and status["status"] == "running"
        shutdown = service._control({"op": "shutdown"})
        assert shutdown["ok"] and shutdown["stopping"]
        assert service._control({"op": "status"})["status"] == "stopping"

    def test_socket_api_live(self, tmp_path):
        """Run the service in a thread and poke it over the real socket."""
        config = self._config(tmp_path)
        service = GuardService(config, tick_fn=lambda: 0)
        done = []

        def serve():
            with telemetry.session(run_id="test-serve"):
                done.append(service.run())

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            assert _wait_for(config.socket_path.exists)
            ping = control_call(config.socket_path, {"op": "ping"})
            assert ping["ok"]
            assert _wait_for(
                lambda: control_call(
                    config.socket_path, {"op": "status"},
                )["ticks"] >= 2
            )
            metrics = control_call(config.socket_path, {"op": "metrics"})
            assert metrics["ok"]
            assert "serve_ticks" in metrics["prometheus"]
            assert control_call(config.socket_path, {"op": "shutdown"})["ok"]
        finally:
            service.request_stop()
            thread.join(timeout=10)
        assert done == [0]
        doc = json.loads(config.heartbeat_path.read_text())
        assert doc["status"] == "stopped"

    def test_run_service_wrapper_returns_zero(self, tmp_path):
        # run_service adds the telemetry session + signal handling
        assert run_service(self._config(tmp_path), max_ticks=1) == 0


# -- supervisor ----------------------------------------------------------------


FAST_POLICY = RestartPolicy(
    max_restarts=3, backoff_base_s=0.01, healthy_s=60.0,
)


def _exit_clean():
    pass


def _crash_once(marker):
    if os.path.exists(marker):
        sys.exit(0)
    open(marker, "w").close()
    sys.exit(1)


def _crash_always():
    sys.exit(1)


def _sleep_long():
    time.sleep(60)


class TestRestartPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RestartPolicy(max_restarts=-1)
        with pytest.raises(ConfigurationError):
            RestartPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigurationError):
            RestartPolicy(healthy_s=-1)

    def test_backoff_grows_and_caps(self):
        policy = RestartPolicy(
            backoff_base_s=1.0, backoff_factor=2.0, backoff_cap_s=3.0,
        )
        first = policy.backoff_s(1)
        second = policy.backoff_s(2)
        assert 1.0 <= first <= 1.25
        assert second > first
        assert policy.backoff_s(10) <= 3.0 * 1.25  # capped (plus jitter)

    def test_backoff_is_deterministic(self):
        policy = RestartPolicy(backoff_base_s=0.5)
        assert policy.backoff_s(2, label="svc") == policy.backoff_s(
            2, label="svc",
        )


class TestSupervisor:
    def test_normal_exit_ends_supervision(self):
        supervisor = Supervisor(_exit_clean, policy=FAST_POLICY)
        assert supervisor.run() == 0
        assert supervisor.restarts == 0

    def test_crash_restarted_then_clean_exit(self, tmp_path):
        marker = str(tmp_path / "crashed-once")
        supervisor = Supervisor(
            _crash_once, args=(marker,), policy=FAST_POLICY,
        )
        assert supervisor.run() == 0
        assert supervisor.restarts == 1

    def test_budget_exhaustion_gives_up_with_child_code(self):
        supervisor = Supervisor(
            _crash_always,
            policy=RestartPolicy(max_restarts=2, backoff_base_s=0.01),
        )
        assert supervisor.run() == 1
        assert supervisor.restarts == 3  # the fatal third strike

    def test_stop_terminates_child_and_returns_zero(self):
        supervisor = Supervisor(_sleep_long, policy=FAST_POLICY)
        codes = []
        thread = threading.Thread(
            target=lambda: codes.append(supervisor.run()), daemon=True,
        )
        thread.start()
        assert _wait_for(lambda: supervisor.child_pid is not None)
        supervisor.stop()
        thread.join(timeout=15)
        assert not thread.is_alive()
        assert codes == [0]


# -- signals -------------------------------------------------------------------


class TestTerminationHandling:
    def test_sigterm_becomes_catchable_and_fires_once(self):
        with pytest.raises(TerminationSignal) as excinfo:
            with handle_termination():
                try:
                    os.kill(os.getpid(), signal.SIGTERM)
                    time.sleep(5)
                    pytest.fail("signal never delivered")
                except TerminationSignal:
                    # a second SIGTERM mid-unwind must NOT re-raise,
                    # or cleanup would be cut short
                    os.kill(os.getpid(), signal.SIGTERM)
                    time.sleep(0.05)
                    raise
        assert excinfo.value.signum == signal.SIGTERM
        assert excinfo.value.exit_code == 143

    def test_previous_handlers_restored(self):
        before = signal.getsignal(signal.SIGTERM)
        with handle_termination():
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before

    def test_noop_off_main_thread(self):
        outcome = []

        def worker():
            with handle_termination():
                outcome.append(signal.getsignal(signal.SIGTERM))

        before = signal.getsignal(signal.SIGTERM)
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert outcome == [before]  # nothing was installed


# -- end to end ----------------------------------------------------------------


class TestServeEndToEnd:
    def test_sigterm_shuts_down_gracefully(self, tmp_path):
        """A real `mnemo serve` process exits 143 with a clean heartbeat."""
        rundir = tmp_path / "run"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--workload", "trending", "--downsample", "20",
                "--repeats", "1", "--validate-every", "0",
                "--interval", "0.2", "--rundir", str(rundir),
                "--no-supervise", "--store", str(tmp_path / "serve.db"),
            ],
            env=env, cwd=str(tmp_path),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        heartbeat = rundir / "heartbeat.json"
        try:
            assert _wait_for(
                lambda: heartbeat.exists()
                and json.loads(heartbeat.read_text()).get("ticks", 0) >= 1,
                timeout_s=120.0, interval_s=0.1,
            ), "service never produced a tick"
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 143
        doc = json.loads(heartbeat.read_text())
        assert doc["status"] == "stopped"
        assert doc["ticks"] >= 1
        assert not (rundir / "control.sock").exists()
        # the stop was journaled before the store closed
        store = SQLiteStore(tmp_path / "serve.db")
        try:
            kinds = [e.kind for e in store.oplog.entries("serve")]
            assert "service_started" in kinds
            assert "service_stopped" in kinds
        finally:
            store.close()
