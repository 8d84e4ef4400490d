"""The served ``size`` answer: its payload and its per-snapshot memo.

The payload is built by reading the choice's fields rather than by
``dataclasses.asdict``; on every choice the advisor can render it must
be the very dict ``asdict`` gave (the socket-vs-CLI bit-identity tests
compare against ``choice_payload`` itself, so they cannot see a drift).

A finished answer is memoized per exact request fields for the
advisor's lifetime: a hit must be the very answer a fresh advisor
computes, stay bounded, still pass the deadline checkpoint, and never
wait on ``_sim_lock``.
"""

import dataclasses
import json
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.core.advice import ENGINES, AdviceRequest, advise
from repro.core.slo import choice_at, min_cost_for_slowdown
from repro.errors import ConfigurationError, DeadlineExceededError
from repro.service import GuardService, ServeConfig
from repro.service.advisor import (
    ANSWER_ENTRIES, ServedAdvisor, choice_payload,
)
from repro.service.requests import Deadline
from repro.ycsb.presets import TABLE_III_WORKLOADS

SLOS = (0.02, 0.10, 0.30)


def asdict_payload(choice) -> dict:
    """The ``dataclasses.asdict`` rendering the payload must equal."""
    body = dataclasses.asdict(choice)
    body["fast_bytes"] = float(body["fast_bytes"])
    body["n_fast_keys"] = int(body["n_fast_keys"])
    body["savings_percent"] = float(choice.savings_percent)
    return body


@pytest.mark.parametrize("engine", list(ENGINES))
@pytest.mark.parametrize(
    "workload", [w.name for w in TABLE_III_WORKLOADS],
)
def test_payload_equals_the_asdict_rendering(workload, engine):
    curve = advise(AdviceRequest(
        workload=workload, engine=engine, downsample=50, repeats=1, seed=3,
    )).report.curve
    choices = []
    for slo in SLOS:
        choices.append(min_cost_for_slowdown(curve, slo))
        choices += [
            choice_at(curve, n, max_slowdown=slo)
            for n in (0, curve.n_keys // 3, curve.n_keys)
        ]
    for choice in choices:
        got, want = choice_payload(choice), asdict_payload(choice)
        assert json.dumps(got, sort_keys=True) == json.dumps(
            want, sort_keys=True,
        )
        assert list(got) == list(want)  # the socket writes it unsorted
        assert [type(v) for v in got.values()] == [
            type(v) for v in want.values()
        ]


PAIRS = (("trending", "redis"), ("timeline", "memcached"),
         ("news_feed", "dynamodb"))


def _config(tmp_path, **kwargs):
    return ServeConfig(**{
        "downsample": 50.0, "repeats": 1, "seed": 3, "validate_every": 0,
        "store": str(tmp_path / "s.db"), "rundir": str(tmp_path / "run"),
        "run_id": "test-advisor", **kwargs,
    })


@pytest.fixture(scope="module")
def config(tmp_path_factory):
    return _config(tmp_path_factory.mktemp("answers"))


@pytest.fixture
def warm(config):
    """A loaded advisor that has answered the watched ``size`` once."""
    advisor = ServedAdvisor(config)
    advisor.size()
    return advisor


class TestAnswerMemo:
    def test_a_memoized_answer_is_a_fresh_advisors_answer(self, config):
        served = ServedAdvisor(config)
        for workload, engine in PAIRS:
            for slo in SLOS:
                asked = dict(workload=workload, engine=engine, slo=slo)
                first = served.size(**asked)
                hit = served.size(**asked)
                assert hit is first  # one memo read
                fresh = ServedAdvisor(config).size(**asked)
                assert hit == fresh
                assert json.dumps(hit).encode() == json.dumps(
                    fresh
                ).encode()
        assert len(served._answers) == len(PAIRS) * len(SLOS)

    def test_reload_answers_from_the_new_snapshot(self, tmp_path):
        service = GuardService(_config(tmp_path), tick_fn=lambda: 0)
        try:
            asked = {"op": "size", "slo": 0.2}
            before = service._control(asked)
            assert service._control(asked)["choice"] == before["choice"]
            assert service._control(
                {"op": "reload", "engine": "memcached"}
            )["ok"]
            after = service._control(asked)
            assert (after["engine"], after["generation"]) == ("memcached", 1)
            fresh = ServedAdvisor(service.config).size(slo=0.2)
            assert {k: after[k] for k in fresh} == fresh
            assert after["choice"] != before["choice"]
        finally:
            service._plane.close()

    def test_refusals_are_never_memoized(self, warm):
        for slo in (1, 1.0, True, 1.5, "0.1"):
            for _ in range(2):
                with pytest.raises(ConfigurationError, match="slo"):
                    warm.size(slo=slo)
        with pytest.raises(ConfigurationError, match="slo"):
            warm.size(slo=[0.1])  # unhashable: refused, not a TypeError
        assert len(warm._answers) == 1  # the fixture's watched answer

    def test_equal_values_of_another_type_answer_apart(self, warm):
        as_numpy = warm.size(slo=np.float64(0.1))
        as_float = warm.size(slo=0.1)
        assert type(as_numpy["slo"]) is np.float64
        assert type(as_float["slo"]) is float
        assert as_numpy["choice"] == as_float["choice"]
        assert len(warm._answers) == 3

    def test_distinct_slos_keep_the_memo_bounded(self, warm):
        slos = [0.01 + i * 1e-6 for i in range(10_000)]
        for slo in slos:
            warm.size(slo=slo)
            assert len(warm._answers) <= ANSWER_ENTRIES
        assert len(warm._answers) == ANSWER_ENTRIES
        # least recently asked went first
        assert next(reversed(warm._answers))[-1] == slos[-1]
        assert all(key[-1] != slos[0] for key in warm._answers)

    def test_a_hit_still_checks_the_deadline(self, warm):
        expired = Deadline(1e-3)
        expired._expires = 0.0
        with pytest.raises(DeadlineExceededError, match="profile"):
            warm.size(deadline=expired)

    def test_a_hit_never_waits_on_the_sim_lock(self, warm):
        def ask(slo, done):
            warm.size(slo=slo)
            done.set()

        with warm._sim_lock:
            hit, miss = threading.Event(), threading.Event()
            threading.Thread(target=ask, args=(None, hit)).start()
            assert hit.wait(5.0)
            threading.Thread(target=ask, args=(0.123, miss)).start()
            assert not miss.wait(0.05)
        assert miss.wait(30.0)

    def test_every_warm_size_is_counted_with_its_memo(self, warm):
        def hits(tel):
            return {
                rec["labels"]["memo"]: rec["value"]
                for rec in tel.metrics.snapshot()
                if rec["name"] == "serve.size_memo_hits"
            }

        with telemetry.session(run_id="memo-labels") as tel:
            warm.size()
            warm.size(slo=0.2)
            warm.size(slo=0.2)
            assert hits(tel) == {"answer": 2.0, "report": 1.0}
            expired = Deadline(1e-3)
            expired._expires = 0.0
            with pytest.raises(DeadlineExceededError):
                warm.size(slo=0.2, deadline=expired)
            # a hit answered deadline_exceeded was not served
            assert hits(tel) == {"answer": 2.0, "report": 1.0}
