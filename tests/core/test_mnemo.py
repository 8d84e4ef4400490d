"""Tests for the Mnemo facade and report."""

import numpy as np
import pytest

from repro.core import ExternalTieringMnemo, Mnemo, MnemoReport, MnemoT
from repro.kvstore import RedisLike
from repro.ycsb import YCSBClient, generate_trace
from repro.ycsb.workload import Trace


@pytest.fixture
def report(small_trace, quiet_client) -> MnemoReport:
    return Mnemo(engine_factory=RedisLike, client=quiet_client).profile(
        small_trace
    )


class TestProfile:
    def test_report_fields(self, report, small_trace):
        assert report.workload == small_trace.name
        assert report.engine == "redis"
        assert report.pattern.mode == "touch"
        assert report.curve.n_keys == small_trace.n_keys

    def test_accepts_descriptor(self, small_trace, quiet_client):
        """The paper's workload descriptor is the trace, used as given:
        the pattern's counts are the trace's own cached arrays."""
        report = Mnemo(engine_factory=RedisLike,
                       client=quiet_client).profile(small_trace)
        assert report.workload == small_trace.name
        reads, writes = small_trace.per_key_counts()
        assert report.pattern.reads_per_key is reads
        assert report.pattern.writes_per_key is writes

    def test_price_factor_propagates(self, small_trace, quiet_client):
        report = Mnemo(engine_factory=RedisLike, client=quiet_client,
                       p=0.5).profile(small_trace)
        assert report.curve.cost_factor[0] == pytest.approx(0.5)

    def test_write_csv(self, report, tmp_path):
        path = report.write_csv(tmp_path / "curve.csv")
        assert path.exists()
        assert len(path.read_text().splitlines()) == report.curve.n_keys + 1

    def test_summary_mentions_key_facts(self, report):
        text = report.summary()
        assert "redis" in text
        assert "FastMem-only" in text
        assert "10% slowdown SLO" in text

    def test_choose_delegates(self, report):
        choice = report.choose(0.10)
        assert choice.workload == report.workload
        assert choice.max_slowdown == 0.10


class TestProfileCopiesNothing:
    """A profile builds no second trace and hashes a trace object once."""

    @pytest.mark.parametrize("facade", [Mnemo, MnemoT])
    @pytest.mark.parametrize("how", [
        {"accuracy": "simulate"},
        {"accuracy": "analytic"},
        {"allow_partial": True},
    ], ids=["simulate", "analytic", "partial"])
    def test_no_trace_is_built(self, small_spec, facade, how, monkeypatch):
        trace = generate_trace(small_spec)
        built = []
        post_init = Trace.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(Trace, "__post_init__", counting)
        mnemo = facade(engine_factory=RedisLike,
                       client=YCSBClient(repeats=1, seed=3))
        mnemo.profile(trace, **how)
        assert built == []

    def test_second_profile_hashes_nothing(self, small_spec, monkeypatch):
        from repro.runner import fingerprint

        trace = generate_trace(small_spec)
        calls = []
        original = fingerprint.trace_fingerprint

        def counting(t):
            calls.append(t)
            return original(t)

        monkeypatch.setattr(fingerprint, "trace_fingerprint", counting)
        Mnemo(engine_factory=RedisLike,
              client=YCSBClient(repeats=1, seed=3)).profile(trace)
        assert calls == [trace]
        calls.clear()
        for facade in (Mnemo, MnemoT):
            facade(engine_factory=RedisLike,
                   client=YCSBClient(repeats=1, seed=3)).profile(trace)
        assert calls == []


class TestExternalTiering:
    def test_external_order_used(self, small_trace, quiet_client):
        order = np.arange(small_trace.n_keys)[::-1].copy()
        mnemo = ExternalTieringMnemo(engine_factory=RedisLike,
                                     client=quiet_client)
        report = mnemo.profile(small_trace, external_order=order)
        assert np.array_equal(report.pattern.order, order)
        assert report.pattern.mode == "external"

    def test_missing_order_raises(self, small_trace, quiet_client):
        from repro.errors import ConfigurationError

        mnemo = ExternalTieringMnemo(engine_factory=RedisLike,
                                     client=quiet_client)
        with pytest.raises(ConfigurationError):
            mnemo.profile(small_trace)


class TestDeterminism:
    def test_profiles_reproducible(self, small_trace):
        a = Mnemo(engine_factory=RedisLike).profile(small_trace)
        b = Mnemo(engine_factory=RedisLike).profile(small_trace)
        assert np.array_equal(a.curve.runtime_ns, b.curve.runtime_ns)
