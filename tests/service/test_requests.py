"""Tests for the request plane: deadlines, auth, pooling, and the ops.

Unit tests drive :class:`Deadline` / :class:`AuthRegistry` /
:class:`RequestPlane` directly (microseconds), then the served-advisor
dispatch (`size`/`validate`/`drift`/`reload`, auth gating, degradation,
stale-socket reclamation) through :meth:`GuardService._control` with a
real downsampled advisor — no socket needed, so the whole matrix stays
fast and deterministic.
"""

import json
import socket
import sys
import threading
import time

import pytest

from repro import telemetry
from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    ServiceError,
    StoreError,
)
from repro.service import (
    AuthRegistry,
    ClientPolicy,
    Deadline,
    GuardService,
    RequestPlane,
    ServeConfig,
    ServiceClient,
    control_call,
    diagnose_unreachable,
    token_digest,
)
from repro.store import (
    KIND_TOKEN_REGISTERED,
    KIND_TOKEN_REVOKED,
    SQLiteStore,
)

#: Cheap, deterministic daemon settings shared by every advisor test.
FAST = dict(downsample=50.0, repeats=1, interval_s=0.1, validate_every=0)


def _wait_for(predicate, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def _config(tmp_path, **kwargs):
    merged = {**FAST, "rundir": str(tmp_path / "run"),
              "run_id": "test-requests", **kwargs}
    return ServeConfig(**merged)


class TestDeadline:
    def test_counts_down_and_expires(self):
        d = Deadline(30.0)
        assert not d.expired
        assert 0 < d.remaining() <= 30.0
        d._expires = time.monotonic() - 1  # force expiry
        assert d.expired
        assert d.remaining() == 0.0

    def test_check_raises_when_expired(self):
        d = Deadline(0.001)
        time.sleep(0.005)
        with pytest.raises(DeadlineExceededError, match="profile"):
            d.check("profile")

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            Deadline(0.0)


class TestAuthRegistry:
    def test_empty_registry_is_open(self):
        registry = AuthRegistry()
        assert not registry.active
        assert registry.authorize(None)
        assert registry.authorize("anything")

    def test_register_locks_and_authorizes(self):
        registry = AuthRegistry()
        registry.register("token-aaaa-1")
        assert registry.active
        assert registry.authorize("token-aaaa-1")
        assert not registry.authorize("token-aaaa-2")
        assert not registry.authorize(None)
        assert not registry.authorize(12345)  # non-strings never pass

    def test_short_tokens_rejected(self):
        with pytest.raises(ConfigurationError, match="8"):
            AuthRegistry().register("short")
        with pytest.raises(ConfigurationError):
            AuthRegistry().register(None)

    def test_revoke_reopens_when_last_token_goes(self):
        registry = AuthRegistry()
        registry.register("token-aaaa-1")
        assert registry.revoke("token-aaaa-1")
        assert not registry.revoke("token-aaaa-1")  # already gone
        assert not registry.active
        assert registry.authorize(None)  # back to bootstrap mode

    def test_replay_folds_register_and_revoke(self, tmp_path):
        store = SQLiteStore(tmp_path / "s.db")
        try:
            log = store.oplog
            log.append("r", KIND_TOKEN_REGISTERED,
                       token_sha256=token_digest("keep-token-1"))
            log.append("r", KIND_TOKEN_REGISTERED,
                       token_sha256=token_digest("gone-token-1"))
            log.append("r", KIND_TOKEN_REVOKED,
                       token_sha256=token_digest("gone-token-1"))
            registry = AuthRegistry.replay(log, "r")
            assert registry.active
            assert registry.authorize("keep-token-1")
            assert not registry.authorize("gone-token-1")
            # other runs' tokens don't leak in
            assert not AuthRegistry.replay(log, "other").active
        finally:
            store.close()


class TestRequestPlane:
    def test_submit_runs_on_worker(self):
        plane = RequestPlane(workers=2, queue_depth=4).start()
        try:
            out = plane.submit(
                "op", lambda: {"ok": True, "n": 7}, Deadline(5.0),
            )
            assert out == {"ok": True, "n": 7}
        finally:
            plane.close()

    def test_submit_runs_on_the_calling_thread(self):
        plane = RequestPlane(workers=1, queue_depth=1)
        ran_on = []
        out = plane.submit(
            "op", lambda: ran_on.append(threading.get_ident()) or {"ok": True},
            Deadline(5.0),
        )
        assert out == {"ok": True}
        assert ran_on == [threading.get_ident()]

    def test_full_queue_sheds_with_retry_hint(self):
        workers, queue_depth = 2, 3
        release = threading.Event()
        computing = threading.Semaphore(0)

        def block():
            computing.release()
            release.wait(10.0)
            return {"ok": True}

        plane = RequestPlane(workers=workers, queue_depth=queue_depth)
        callers = [
            threading.Thread(
                target=lambda: plane.submit("op", block, Deadline(10.0)),
                daemon=True,
            )
            for _ in range(workers + queue_depth)
        ]
        try:
            # pin every compute slot ...
            for t in callers[:workers]:
                t.start()
            for _ in range(workers):
                assert computing.acquire(timeout=5.0)
            # ... and fill the waiting room behind them
            for t in callers[workers:]:
                t.start()
            assert _wait_for(
                lambda: plane._in_flight == workers + queue_depth,
            )
            out = plane.submit(
                "op", lambda: {"ok": True}, Deadline(10.0),
            )
            assert out["ok"] is False
            assert out["error"] == "overloaded"
            assert out["retry_after_s"] > 0
            assert out["queue_depth"] == queue_depth
        finally:
            release.set()
            for t in callers:
                t.join(timeout=10.0)
        assert plane._in_flight == 0

    def test_expired_job_not_executed(self):
        release = threading.Event()
        computing = threading.Event()
        ran = []

        def hold():
            computing.set()
            release.wait(10.0)
            return {"ok": True}

        def work():
            ran.append(1)
            return {"ok": True}

        plane = RequestPlane(workers=1, queue_depth=2)
        holder = threading.Thread(
            target=lambda: plane.submit("op", hold, Deadline(10.0)),
            daemon=True,
        )
        holder.start()
        try:
            assert computing.wait(5.0)
            t0 = time.monotonic()
            out = plane.submit("op", work, Deadline(0.2))
            waited = time.monotonic() - t0
        finally:
            release.set()
            holder.join(timeout=10.0)
        assert ran == []  # it aged out waiting; fn never ran
        assert out["error"] == "deadline_exceeded"
        assert out["where"] == "queued"
        assert out["deadline_s"] == 0.2
        assert 0.15 <= waited < 5.0  # answered at its deadline

    def test_at_most_workers_compute_at_once(self):
        """16 callers at ``workers=2``: two compute, nobody is lost."""
        plane = RequestPlane(workers=2, queue_depth=14)
        gate = threading.Lock()
        now, peak, done, replies = [0], [0], [], []

        def work():
            with gate:
                now[0] += 1
                peak[0] = max(peak[0], now[0])
            time.sleep(0.001)
            with gate:
                now[0] -= 1
                done.append(1)
            return {"ok": True}

        def caller():
            for _ in range(25):
                replies.append(plane.submit("op", work, Deadline(30.0)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [
                threading.Thread(target=caller, daemon=True)
                for _ in range(16)
            ]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert 1 <= peak[0] <= 2, peak
        assert len(done) == len(replies) == 16 * 25
        assert all(r == {"ok": True} for r in replies)
        assert plane._in_flight == 0

    def test_in_flight_count_returns_to_zero(self):
        plane = RequestPlane(workers=1, queue_depth=1)

        def boom():
            raise RuntimeError("kaput")

        def late():
            raise DeadlineExceededError("deadline (1s) exceeded at x")

        assert plane.submit("op", boom, Deadline(5.0))["error"] == (
            "internal_error"
        )
        assert plane._in_flight == 0
        assert plane.submit("op", late, Deadline(5.0))["error"] == (
            "deadline_exceeded"
        )
        assert plane._in_flight == 0
        # one computing, one waiting: the next is shed and never counted
        release = threading.Event()
        callers = [
            threading.Thread(
                target=lambda: plane.submit(
                    "op", lambda: release.wait(10.0) and {"ok": True},
                    Deadline(10.0),
                ),
                daemon=True,
            )
            for _ in range(2)
        ]
        for t in callers:
            t.start()
        try:
            assert _wait_for(lambda: plane._in_flight == 2)
            assert plane.submit(
                "op", lambda: {"ok": True}, Deadline(5.0),
            )["error"] == "overloaded"
            assert plane._in_flight == 2
        finally:
            release.set()
            for t in callers:
                t.join(timeout=10.0)
        assert plane._in_flight == 0

    def test_worker_exception_becomes_structured_error(self):
        plane = RequestPlane(workers=1, queue_depth=2).start()
        try:
            def boom():
                raise RuntimeError("kaput")

            out = plane.submit("op", boom, Deadline(5.0))
            assert out["ok"] is False
            assert out["error"] == "internal_error"
            assert "kaput" in out["detail"]
        finally:
            plane.close()

    def test_deadline_error_becomes_structured_response(self):
        plane = RequestPlane(workers=1, queue_depth=2).start()
        try:
            def slow():
                raise DeadlineExceededError("deadline (1s) exceeded at x")

            out = plane.submit("op", slow, Deadline(1.0))
            assert out["error"] == "deadline_exceeded"
            assert out["deadline_s"] == 1.0
        finally:
            plane.close()

    def test_close_is_idempotent_and_refuses_new_work(self):
        plane = RequestPlane(workers=1, queue_depth=2).start()
        plane.close()
        plane.close()
        out = plane.submit("op", lambda: {"ok": True}, Deadline(1.0))
        assert out["error"] == "shutting_down"

    def test_invalid_sizing_rejected(self):
        with pytest.raises(ConfigurationError):
            RequestPlane(workers=0)
        with pytest.raises(ConfigurationError):
            RequestPlane(queue_depth=0)

    def test_daemon_runs_advice_on_its_io_threads(self, tmp_path):
        """300 warm ``size`` calls: each computed by the I/O thread that
        read it, and no ``serve-worker-*`` thread exists."""
        service = GuardService(_config(tmp_path), tick_fn=lambda: 0)
        daemon = threading.Thread(target=service.run, daemon=True)
        daemon.start()
        path = service.config.socket_path
        try:
            assert _wait_for(path.exists)
            assert control_call(path, {"op": "size"}, timeout=120.0)["ok"]
            real_size = service.advisor.size
            ran_on = []

            def size(**kwargs):
                ran_on.append(threading.current_thread().name)
                return real_size(**kwargs)

            service.advisor.size = size
            for _ in range(300):
                assert control_call(path, {"op": "size"})["ok"]
            workers = [
                t.name for t in threading.enumerate()
                if t.name.startswith("serve-worker-")
            ]
        finally:
            service.request_stop()
            daemon.join(timeout=30.0)
        assert workers == []
        assert len(ran_on) == 300
        assert all(name.startswith("mnemo-serve-io-") for name in ran_on)


class TestClientPolicy:
    def test_backoff_grows_and_is_deterministic(self):
        policy = ClientPolicy(backoff_base_s=0.1, backoff_cap_s=1.0)
        first = policy.backoff_s(1, label="c")
        second = policy.backoff_s(2, label="c")
        assert 0.1 <= first <= 0.125
        assert second > first
        assert policy.backoff_s(9, label="c") <= 1.0 * 1.25  # capped
        assert first == policy.backoff_s(1, label="c")

    def test_labels_desynchronise_jitter(self):
        policy = ClientPolicy()
        assert policy.backoff_s(1, label="a") != policy.backoff_s(
            1, label="b",
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ClientPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            ClientPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigurationError):
            ClientPolicy(timeout_s=0)


class TestServiceClient:
    def test_gives_up_after_attempt_budget(self, tmp_path):
        client = ServiceClient(
            tmp_path / "nope.sock",
            policy=ClientPolicy(max_attempts=2, backoff_base_s=0.001),
        )
        with pytest.raises(ServiceError, match="2 attempts"):
            client.call("ping")
        assert client.attempts == 2

    def test_diagnose_never_started(self, tmp_path):
        message = diagnose_unreachable(
            tmp_path / "s.sock", tmp_path / "hb.json", "boom",
        )
        assert "never started" in message

    def test_diagnose_stopped_gracefully(self, tmp_path):
        hb = tmp_path / "hb.json"
        hb.write_text(json.dumps(
            {"status": "stopped", "pid": 123, "ticks": 9}
        ))
        message = diagnose_unreachable(tmp_path / "s.sock", hb, "boom")
        assert "stopped gracefully" in message
        assert "9 ticks" in message

    def test_diagnose_dead_daemon(self, tmp_path):
        hb = tmp_path / "hb.json"
        hb.write_text(json.dumps(
            {"status": "running", "pid": 123, "ticks": 4}
        ))
        message = diagnose_unreachable(tmp_path / "s.sock", hb, "boom")
        assert "dead since" in message
        assert "pid 123" in message


class TestAuthGating:
    def test_unauthenticated_callers_limited_to_ping(self, tmp_path):
        service = GuardService(_config(tmp_path), tick_fn=lambda: 0)
        try:
            assert service._control(
                {"op": "register", "new_token": "gate-token-1"}
            )["ok"]
            assert service._control({"op": "ping"})["ok"]
            for op in ("status", "metrics", "shutdown", "size",
                       "validate", "drift", "reload", "register",
                       "revoke"):
                reply = service._control({"op": op})
                assert reply["ok"] is False, op
                assert reply["error"] == "unauthorized", op
            ok = service._control(
                {"op": "status", "token": "gate-token-1"}
            )
            assert ok["ok"] and ok["auth_active"]
        finally:
            service._plane.close()

    def test_junk_ops_share_one_metric_series(self, tmp_path):
        service = GuardService(_config(tmp_path), tick_fn=lambda: 0)

        def series(tel):
            return {
                (rec["name"], rec["labels"]["op"]): rec["value"]
                for rec in tel.metrics.snapshot()
                if rec["name"] in ("serve.control", "serve.unauthorized")
            }

        try:
            with telemetry.session(run_id="junk-ops") as tel:
                service._control({"op": "ping"})
                service._control({"op": "status"})
                known = series(tel)
                for i in range(1000):
                    reply = service._control({"op": f"junk-{i}"})
                    assert reply["error"] == f"unknown op 'junk-{i}'"
                after = series(tel)
                assert len(after) - len(known) <= 1
                assert after[("serve.control", "unknown")] == 1000
                assert after[("serve.control", "ping")] == 1
                assert after[("serve.control", "status")] == 1
                # behind a token, junk is counted unauthorized, still once
                service._control(
                    {"op": "register", "new_token": "junk-token-1"}
                )
                for i in range(1000):
                    service._control({"op": f"locked-{i}"})
                service._control({"op": "status"})
                locked = series(tel)
                assert locked[("serve.unauthorized", "unknown")] == 1000
                assert locked[("serve.unauthorized", "status")] == 1
                assert not any(op.startswith(("junk", "locked"))
                               for _, op in locked)
        finally:
            service._plane.close()

    def test_register_and_revoke_journaled(self, tmp_path):
        store = SQLiteStore(tmp_path / "s.db")
        try:
            config = _config(tmp_path)
            service = GuardService(config, tick_fn=lambda: 0, store=store)
            reg = service._control(
                {"op": "register", "new_token": "journal-token-1"}
            )
            assert reg["ok"]
            assert reg["token_sha256"] == token_digest("journal-token-1")
            service._control({
                "op": "revoke", "token": "journal-token-1",
                "revoke_token": "journal-token-1",
            })
            registered = store.oplog.entries(
                config.run_id, kind=KIND_TOKEN_REGISTERED,
            )
            revoked = store.oplog.entries(
                config.run_id, kind=KIND_TOKEN_REVOKED,
            )
            assert [e.payload["token_sha256"] for e in registered] == [
                token_digest("journal-token-1"),
            ]
            assert [e.payload["token_sha256"] for e in revoked] == [
                token_digest("journal-token-1"),
            ]
            # raw tokens never reach the journal
            for entry in registered + revoked:
                assert "journal-token-1" not in json.dumps(entry.payload)
            service._plane.close()
        finally:
            store.close()

    def test_registry_replayed_across_restart(self, tmp_path):
        store = SQLiteStore(tmp_path / "s.db")
        try:
            config = _config(tmp_path)
            first = GuardService(config, tick_fn=lambda: 0, store=store)
            first._control(
                {"op": "register", "new_token": "durable-token-1"}
            )
            first.run(max_ticks=1)
            # a fresh process: replay from the journal during run()
            second = GuardService(config, tick_fn=lambda: 0, store=store)
            second.run(max_ticks=1)
            assert second._auth.active
            assert second._auth.authorize("durable-token-1")
            reply = second._control({"op": "status"})
            assert reply["error"] == "unauthorized"
        finally:
            store.close()


class TestAdviceOps:
    """The real advisor behind `size`/`validate`/`drift`, downsampled."""

    @pytest.fixture(scope="class")
    def service(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("advice")
        store = SQLiteStore(tmp_path / "s.db")
        service = GuardService(
            _config(tmp_path), tick_fn=lambda: 0, store=store,
        )
        yield service
        service._plane.close()
        store.close()

    def test_size_watched_profile(self, service):
        reply = service._control({"op": "size"})
        assert reply["ok"] and reply["op"] == "size"
        assert reply["watched"] is True
        assert reply["stale"] is False
        choice = reply["choice"]
        assert choice["n_fast_keys"] > 0
        assert 0 < choice["cost_factor"] < 1
        assert choice["slowdown"] <= 0.1
        json.dumps(reply)  # the whole response is JSON-safe

    def test_size_is_deterministic_across_requests(self, service):
        first = service._control({"op": "size"})
        second = service._control({"op": "size"})
        assert first["choice"] == second["choice"]

    def test_size_custom_slo(self, service):
        tight = service._control({"op": "size", "slo": 0.02})
        loose = service._control({"op": "size", "slo": 0.30})
        assert tight["ok"] and loose["ok"]
        assert (
            tight["choice"]["n_fast_keys"] > loose["choice"]["n_fast_keys"]
        )

    def test_size_bad_params_are_bad_requests(self, service):
        assert service._control(
            {"op": "size", "slo": 5.0}
        )["error"] == "bad_request"
        assert service._control(
            {"op": "size", "workload": "no-such-workload"}
        )["error"] == "bad_request"
        assert service._control(
            {"op": "size", "engine": "no-such-engine"}
        )["error"] == "bad_request"

    @pytest.mark.parametrize("request_, field", [
        ({"op": "size", "slo": "abc"}, "slo"),
        ({"op": "size", "slo": [1]}, "slo"),
        ({"op": "size", "slo": True}, "slo"),
        ({"op": "size", "slo": float("nan")}, "slo"),
        ({"op": "size", "workload": 5}, "workload"),
        ({"op": "size", "engine": ["redis"]}, "engine"),
        ({"op": "validate", "n_fast_keys": "x"}, "n_fast_keys"),
        ({"op": "validate", "n_fast_keys": 1.5}, "n_fast_keys"),
        ({"op": "validate", "n_fast_keys": -1}, "n_fast_keys"),
        ({"op": "validate", "budget_pct": "x"}, "budget_pct"),
        ({"op": "validate", "budget_pct": 0}, "budget_pct"),
        ({"op": "drift", "keys": [1.5, 2.5]}, "keys"),
        ({"op": "drift", "keys": ["1", "2"]}, "keys"),
        ({"op": "drift", "keys": [True, False]}, "keys"),
        ({"op": "drift", "keys": [[1, 2], [3]]}, "keys"),
        ({"op": "drift", "keys": [1, 2], "sizes": [-1, 0]}, "sizes"),
        ({"op": "drift", "keys": [1, 2], "sizes": ["8", "9"]}, "sizes"),
        ({"op": "drift", "keys": [1, 2], "sizes": [8, float("inf")]},
         "sizes"),
    ])
    def test_wrong_typed_params_are_bad_requests(
        self, service, request_, field,
    ):
        """A mistyped field is the caller's error, named, and costs no
        worker a traceback (at PR 22 most of these were
        ``internal_error`` with a Python exception text, and the float
        keys / negative sizes were answered ``ok``)."""

        def worker_errors(tel):
            return sum(
                rec["value"] for rec in tel.metrics.snapshot()
                if rec["name"] == "serve.worker_errors"
            )

        with telemetry.session(run_id="bad-params") as tel:
            service._control({"op": "size"})  # load outside the count
            before = worker_errors(tel)
            reply = service._control(request_)
            assert reply["ok"] is False, reply
            assert reply["error"] == "bad_request", reply
            assert field in reply["detail"], reply
            assert worker_errors(tel) == before == 0

    @pytest.mark.parametrize("asked", [
        float("nan"), float("inf"), "soon", None, [1], True,
    ])
    def test_unusable_deadline_falls_back_to_the_default(
        self, service, asked,
    ):
        """``NaN`` used to build a deadline that never expires."""
        deadline = service._request_deadline({"deadline_s": asked})
        assert deadline.budget_s == service.config.deadline_s
        assert service._request_deadline(
            {"deadline_s": 0.25}
        ).budget_s == 0.25
        assert service._request_deadline(
            {"deadline_s": 1e9}
        ).budget_s == service.config.max_deadline_s

    def test_validate_default_choice(self, service):
        reply = service._control({"op": "validate"})
        assert reply["ok"]
        assert reply["passed"] is True
        assert reply["verdict"]["status"] == "pass"

    def test_validate_explicit_split(self, service):
        reply = service._control({"op": "validate", "n_fast_keys": 64})
        assert reply["ok"]
        assert reply["n_fast_keys"] == 64

    def test_drift_clean_sample_keeps_plan(self, service):
        keys = service.advisor._planning.keys[:3000].tolist()
        reply = service._control({"op": "drift", "keys": keys})
        assert reply["ok"]
        assert reply["level"] == "ok"
        assert reply["action"] == "keep"
        assert {s["metric"] for s in reply["signals"]} == {
            "divergence", "churn", "size_shift",
        }

    def test_drift_rejects_bad_samples(self, service):
        assert service._control(
            {"op": "drift", "keys": []}
        )["error"] == "bad_request"
        assert service._control(
            {"op": "drift", "keys": [10**9]}
        )["error"] == "bad_request"
        assert service._control(
            {"op": "drift", "keys": [1, 2], "sizes": [1.0]}
        )["error"] == "bad_request"
        assert service._control(
            {"op": "drift", "keys": "not-a-list"}
        )["error"] == "bad_request"

    def test_request_served_journaled(self, service):
        service._control({"op": "size"})
        entries = service.store.oplog.entries(
            service.config.run_id, kind="request_served",
        )
        assert entries
        assert entries[-1].payload["op"] == "size"
        assert entries[-1].payload["status"] == "ok"


class TestReload:
    def test_reload_swaps_without_restart(self, tmp_path):
        service = GuardService(_config(tmp_path), tick_fn=lambda: 0)
        try:
            before = service._control({"op": "size"})
            assert before["generation"] == 0
            reply = service._control({"op": "reload", "slo": 0.25})
            assert reply["ok"]
            assert reply["generation"] == 1
            assert reply["changed"] == ["slo"]
            after = service._control({"op": "size"})
            assert after["generation"] == 1
            assert after["slo"] == 0.25
            assert (
                after["choice"]["n_fast_keys"]
                < before["choice"]["n_fast_keys"]
            )
        finally:
            service._plane.close()

    def test_reload_rejects_identity_fields(self, tmp_path):
        service = GuardService(_config(tmp_path), tick_fn=lambda: 0)
        try:
            for field in ("rundir", "run_id", "store", "workers"):
                reply = service._control({"op": "reload", field: "x"})
                assert reply["error"] == "bad_request", field
            assert service.generation == 0
        finally:
            service._plane.close()

    def test_failed_reload_keeps_old_advisor(self, tmp_path):
        service = GuardService(_config(tmp_path), tick_fn=lambda: 0)
        try:
            before = service._control({"op": "size"})
            reply = service._control(
                {"op": "reload", "workload": "no-such-workload"}
            )
            assert reply["ok"] is False
            assert reply["error"] == "reload_failed"
            after = service._control({"op": "size"})
            assert after["choice"] == before["choice"]
            assert service.generation == 0
        finally:
            service._plane.close()


class TestGracefulDegradation:
    def test_advisor_error_serves_last_good_flagged_stale(self, tmp_path):
        service = GuardService(_config(tmp_path), tick_fn=lambda: 0)
        try:
            good = service._control({"op": "size"})
            assert good["ok"] and good["stale"] is False

            def broken(**kwargs):
                raise StoreError("store on fire")

            service.advisor.size = broken
            degraded = service._control({"op": "size"})
            assert degraded["ok"] is True
            assert degraded["stale"] is True
            assert degraded["stale_age_s"] >= 0
            assert "store on fire" in degraded["stale_reason"]
            assert degraded["choice"] == good["choice"]
        finally:
            service._plane.close()

    def test_last_good_keeps_a_bounded_number_of_parameter_sets(
        self, tmp_path,
    ):
        from repro.service.serve import LAST_GOOD_ENTRIES

        service = GuardService(_config(tmp_path), tick_fn=lambda: 0)
        try:
            service.advisor.size = lambda **kwargs: {"slo": kwargs["slo"]}
            slos = [0.01 + i * 1e-6 for i in range(10_000)]
            for slo in slos:
                assert service._control({"op": "size", "slo": slo})["ok"]
                assert len(service._last_good) <= LAST_GOOD_ENTRIES
            assert len(service._last_good) == LAST_GOOD_ENTRIES

            def broken(**kwargs):
                raise StoreError("store on fire")

            service.advisor.size = broken
            # the newest answers are still there, the oldest went first
            newest = service._control({"op": "size", "slo": slos[-1]})
            assert newest["stale"] is True and newest["slo"] == slos[-1]
            oldest = service._control({"op": "size", "slo": slos[0]})
            assert oldest["error"] == "advisor_error"
        finally:
            service._plane.close()

    def test_last_good_keys_are_digests_not_requests(self, tmp_path):
        from repro.service.serve import LAST_GOOD_ENTRIES

        service = GuardService(_config(tmp_path), tick_fn=lambda: 0)
        try:
            service.advisor.drift = lambda **kwargs: {"n": len(kwargs["keys"])}
            sample = list(range(16_000))  # ~ 100 KB of request text
            for i in range(LAST_GOOD_ENTRIES + 44):
                sample[0] = i
                assert service._control({"op": "drift", "keys": sample})["ok"]
            assert len(service._last_good) == LAST_GOOD_ENTRIES
            assert sum(map(len, service._last_good)) <= LAST_GOOD_ENTRIES * 64

            def broken(**kwargs):
                raise StoreError("store on fire")

            service.advisor.drift = broken
            stale = service._control({"op": "drift", "keys": sample})
            assert stale["stale"] is True and stale["n"] == len(sample)
        finally:
            service._plane.close()

    def test_last_good_keys_tell_json_texts_apart(self, tmp_path):
        """Parameters that print as different JSON are different keys,
        and a long string field is digested, not kept."""
        service = GuardService(_config(tmp_path), tick_fn=lambda: 0)
        try:
            service.advisor.size = lambda **kwargs: {"slo": kwargs["slo"]}
            for slo in (1.0, "1"):
                assert service._control({"op": "size", "slo": slo})["ok"]
            long_field = {"op": "size", "slo": 1.0, "note": "x" * 100_000}
            assert service._control(long_field)["ok"]
            assert sum(len(repr(k)) for k in service._last_good) < 1_000

            def broken(**kwargs):
                raise StoreError("store on fire")

            service.advisor.size = broken
            for slo in (1.0, "1"):
                reply = service._control({"op": "size", "slo": slo})
                assert reply["stale"] is True and reply["slo"] == slo
            assert service._control(long_field)["stale"] is True
            for slo in (1, True):
                reply = service._control({"op": "size", "slo": slo})
                assert reply["error"] == "advisor_error"
        finally:
            service._plane.close()

    def test_advisor_error_without_memo_is_structured(self, tmp_path):
        service = GuardService(_config(tmp_path), tick_fn=lambda: 0)
        try:
            def broken(**kwargs):
                raise StoreError("cold and broken")

            service.advisor.size = broken
            reply = service._control({"op": "size"})
            assert reply["ok"] is False
            assert reply["error"] == "advisor_error"
        finally:
            service._plane.close()

    def test_failing_tick_does_not_kill_the_loop(self, tmp_path):
        codes = iter([RuntimeError("tick boom"), 0, 0])

        def tick():
            item = next(codes)
            if isinstance(item, Exception):
                raise item
            return item

        store = SQLiteStore(tmp_path / "s.db")
        try:
            config = _config(tmp_path)
            service = GuardService(config, tick_fn=tick, store=store)
            assert service.run(max_ticks=3) == 0
            assert service.ticks == 3
            assert service.tick_failures == 1
            failed = store.oplog.entries(
                config.run_id, kind="guard_tick_failed",
            )
            assert len(failed) == 1
            assert "tick boom" in failed[0].payload["error"]
        finally:
            store.close()


class TestStaleSocket:
    def test_socket_path_appears_already_listening(
        self, tmp_path, monkeypatch,
    ):
        """A client that connects the instant the path exists is never
        refused, even when the daemon is descheduled before it listens."""

        class SlowListen(socket.socket):
            def listen(self, *args):
                time.sleep(0.005)
                super().listen(*args)

        monkeypatch.setattr(socket, "socket", SlowListen)
        config = _config(tmp_path)
        config.socket_path.parent.mkdir(parents=True, exist_ok=True)
        refused = 0
        for _ in range(20):
            service = GuardService(config, tick_fn=lambda: 0)
            opener = threading.Thread(target=service._open_socket)
            opener.start()
            deadline = time.monotonic() + 10.0
            while not config.socket_path.exists():
                assert time.monotonic() < deadline
            try:
                assert control_call(config.socket_path, {"op": "ping"})["ok"]
            except ConnectionRefusedError:
                refused += 1
            opener.join(timeout=10)
            service._close_socket()
        assert refused == 0
        # nothing is left beside the socket once it has its name
        assert sorted(config.socket_path.parent.iterdir()) == []

    def test_socket_never_takes_a_path_that_appeared_after_the_probe(
        self, tmp_path,
    ):
        from repro.service.serve import _ControlServer

        config = _config(tmp_path)
        config.socket_path.parent.mkdir(parents=True, exist_ok=True)
        config.socket_path.touch()  # another daemon won the race
        with pytest.raises(OSError):
            _ControlServer(
                str(config.socket_path), GuardService(config, tick_fn=None),
            )
        assert config.socket_path.is_file()  # still the other one's
        assert [p.name for p in config.socket_path.parent.iterdir()] == [
            "control.sock"
        ]

    def test_stale_socket_reclaimed_on_startup(self, tmp_path):
        config = _config(tmp_path)
        config.socket_path.parent.mkdir(parents=True, exist_ok=True)
        config.socket_path.touch()  # what a SIGKILL leaves behind
        service = GuardService(config, tick_fn=lambda: 0)
        assert service.run(max_ticks=1) == 0  # bind succeeded
        assert not config.socket_path.exists()

    def test_live_socket_never_stolen(self, tmp_path):
        import threading as _threading

        config = _config(tmp_path)
        first = GuardService(config, tick_fn=lambda: 0)
        thread = _threading.Thread(
            target=lambda: first.run(), daemon=True,
        )
        thread.start()
        try:
            deadline = time.monotonic() + 30.0
            while not config.socket_path.exists():
                assert time.monotonic() < deadline
                time.sleep(0.02)
            second = GuardService(config, tick_fn=lambda: 0)
            with pytest.raises(ConfigurationError, match="already"):
                second._open_socket()
        finally:
            first.request_stop()
            thread.join(timeout=10)
