"""Tests for the request plane: deadlines, auth, pooling, and the ops.

Unit tests drive :class:`Deadline` / :class:`AuthRegistry` /
:class:`RequestPlane` directly (microseconds), then the served-advisor
dispatch (`size`/`validate`/`drift`/`reload`, auth gating, degradation,
stale-socket reclamation) through :meth:`GuardService._control` with a
real downsampled advisor — no socket needed, so the whole matrix stays
fast and deterministic.
"""

import json
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

    def test_full_queue_sheds_with_retry_hint(self):
        from repro.service.requests import _Job

        release = threading.Event()
        picked_up = threading.Event()

        def block():
            picked_up.set()
            release.wait(10.0)
            return {"ok": True}

        plane = RequestPlane(workers=1, queue_depth=1).start()
        try:
            # pin the only worker ...
            threading.Thread(
                target=lambda: plane.submit("op", block, Deadline(10.0)),
                daemon=True,
            ).start()
            assert picked_up.wait(5.0)
            # ... and fill the only queue slot
            plane._queue.put(_Job("op", block, Deadline(10.0)))
            out = plane.submit(
                "op", lambda: {"ok": True}, Deadline(10.0),
            )
            assert out["ok"] is False
            assert out["error"] == "overloaded"
            assert out["retry_after_s"] > 0
            assert out["queue_depth"] == 1
        finally:
            release.set()
            plane.close()

    def test_expired_job_not_executed(self):
        from repro.service.requests import _Job

        ran = []

        def work():
            ran.append(1)
            return {"ok": True}

        plane = RequestPlane(workers=1, queue_depth=2)
        deadline = Deadline(5.0)
        deadline._expires = time.monotonic() - 1.0  # aged out in the queue
        plane._queue.put(_Job("op", work, deadline))
        plane.start()
        try:
            time.sleep(0.2)
            assert ran == []  # worker skipped the stale job
        finally:
            plane.close()

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
