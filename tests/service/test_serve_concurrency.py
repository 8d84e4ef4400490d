"""Concurrent clients against one live served-advisor daemon.

One in-thread daemon (real socket, real SQLite store, downsampled
advisor) takes a barrage of mixed ``size``/``validate``/``drift``/
``ping`` requests from many client threads at once.  Every request must
be answered or *cleanly* shed — never a dropped connection — the store
must stay structurally sound, and a socket-served ``size`` answer must
be bit-identical to the same computation run directly through the CLI
profiling path with a cold cache.
"""

import json
import threading
import time

import pytest

from repro import telemetry
from repro.service import GuardService, ServeConfig, control_call
from repro.service.advisor import choice_payload
from repro.store import SQLiteStore

#: Answers a robust daemon may give under concurrent load: success, or
#: a structured shed.  Anything else (connection drop, internal error)
#: fails the test.
CLEAN_ERRORS = ("overloaded",)


def _wait_for(predicate, timeout_s=30.0, interval_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    """A live daemon on a real socket, shared by the whole module."""
    tmp_path = tmp_path_factory.mktemp("concurrency")
    store = SQLiteStore(tmp_path / "store.db")
    config = ServeConfig(
        rundir=str(tmp_path / "run"),
        run_id="test-concurrency",
        interval_s=0.05,
        validate_every=0,
        downsample=50.0,
        repeats=1,
        workers=2,
        queue_depth=8,
    )
    service = GuardService(config, store=store)
    exit_codes = []

    def serve():
        with telemetry.session(run_id=config.run_id):
            exit_codes.append(service.run())

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert _wait_for(config.socket_path.exists)
    # pay for the watched profile once, before any timing-sensitive test
    assert control_call(
        config.socket_path, {"op": "size"}, timeout=120.0,
    )["ok"]
    yield config, service, store
    service.request_stop()
    thread.join(timeout=30)
    assert exit_codes == [0]
    store.close()


def _call(config, request):
    try:
        return control_call(config.socket_path, request, timeout=60.0)
    except (OSError, ValueError) as exc:  # a drop is never acceptable
        return {"ok": False, "error": "connection_error",
                "detail": str(exc)}


class TestConcurrentClients:
    def test_mixed_barrage_all_answered_or_cleanly_shed(self, daemon):
        config, service, store = daemon
        drift_keys = service.advisor._planning.keys[:2000].tolist()
        requests = [
            {"op": "size"},
            {"op": "size", "slo": 0.2},
            {"op": "validate"},
            {"op": "drift", "keys": drift_keys},
            {"op": "ping"},
            {"op": "status"},
        ]
        n_threads = 12
        per_thread = 4
        responses = []
        lock = threading.Lock()

        def client(worker_id):
            for k in range(per_thread):
                request = requests[(worker_id + k) % len(requests)]
                response = _call(config, request)
                with lock:
                    responses.append((request["op"], response))

        threads = [
            threading.Thread(target=client, args=(i,), daemon=True)
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert len(responses) == n_threads * per_thread
        bad = [
            (op, r) for op, r in responses
            if not r.get("ok") and r.get("error") not in CLEAN_ERRORS
        ]
        assert bad == []
        answered = [r for _, r in responses if r.get("ok")]
        assert len(answered) >= n_threads  # load shedding is partial
        # the daemon survived and the store is structurally sound
        assert control_call(config.socket_path, {"op": "ping"})["ok"]
        assert store.integrity_check() == "ok"

    def test_size_responses_identical_across_threads(self, daemon):
        config, _service, _store = daemon
        out = []
        lock = threading.Lock()

        def client():
            response = _call(config, {"op": "size"})
            with lock:
                out.append(response)

        threads = [
            threading.Thread(target=client, daemon=True) for _ in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        answered = [r for r in out if r.get("ok")]
        assert answered
        first = answered[0]["choice"]
        assert all(r["choice"] == first for r in answered)

    def test_socket_size_bit_identical_to_cli_path(self, daemon):
        """The acceptance gate: served == one-shot CLI, bit for bit."""
        config, _service, _store = daemon
        served = _call(config, {"op": "size"})
        assert served["ok"]

        # the exact `mnemo profile` path, with a cold cache so nothing
        # is shared with the daemon but the math
        from repro.core import Mnemo
        from repro.kvstore import RedisLike
        from repro.ycsb import (
            YCSBClient,
            downsample,
            generate_trace,
            workload_by_name,
        )

        trace = generate_trace(workload_by_name(config.workload))
        trace = downsample(
            trace, factor=config.downsample, seed=config.seed,
        )
        report = Mnemo(
            engine_factory=RedisLike,
            client=YCSBClient(repeats=config.repeats, seed=config.seed),
        ).profile(trace)
        expected = choice_payload(report.choose(config.slo))

        assert served["choice"] == expected
        assert served["confidence"] == float(report.confidence)
        assert served["pattern_mode"] == report.pattern.mode
        # and the payload round-trips through JSON unchanged
        assert json.loads(json.dumps(served["choice"])) == expected

    def test_socket_validate_equals_in_process_validator(self, daemon):
        """The served verdict is the in-process one, no field set aside."""
        config, _service, _store = daemon
        served = _call(config, {"op": "validate"})
        assert served["ok"]

        from repro.core.advice import advise
        from repro.guard.validator import ErrorBudget

        # cold: no store, so only the math is shared with the daemon
        advice = advise(config.request)
        validator = advice.consultant.guard_loop(
            budget=ErrorBudget()
        ).validator
        verdict = validator.validate(
            advice.report.curve, advice.report.choose(config.slo),
            advice.trace,
        )
        assert served["verdict"] == json.loads(
            json.dumps(verdict.to_payload())
        )

    def test_reload_with_requests_in_flight(self, daemon):
        """Hot reload drops no in-flight request and answers coherently."""
        config, service, _store = daemon
        stop = threading.Event()
        responses = []
        lock = threading.Lock()

        def hammer():
            while not stop.is_set():
                response = _call(config, {"op": "size"})
                with lock:
                    responses.append(response)

        threads = [
            threading.Thread(target=hammer, daemon=True) for _ in range(3)
        ]
        for t in threads:
            t.start()
        try:
            generation = service.generation
            reply = _call(
                config, {"op": "reload", "slo": 0.18},
            )
            assert reply["ok"], reply
            assert reply["generation"] == generation + 1
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=120)
        bad = [
            r for r in responses
            if not r.get("ok") and r.get("error") not in CLEAN_ERRORS
        ]
        assert bad == []
        answered = [r for r in responses if r.get("ok")]
        assert answered
        # every answer matches exactly one of the two generations'
        # coherent (slo, choice) snapshots — never a torn mix
        by_generation = {}
        for r in answered:
            by_generation.setdefault(r["generation"], set()).add(
                (r["slo"], r["choice"]["n_fast_keys"]),
            )
        for generation, snapshots in by_generation.items():
            assert len(snapshots) == 1, (generation, snapshots)
        # restore the watched SLO for any test that runs after us
        restore = _call(config, {"op": "reload", "slo": 0.1})
        assert restore["ok"]
