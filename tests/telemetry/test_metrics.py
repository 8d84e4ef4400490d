"""The zero-dependency metrics registry: counters, gauges, histograms."""

import pytest

from repro.errors import ConfigurationError
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    labels_key,
)


class TestCounter:
    def test_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        with pytest.raises(ConfigurationError, match="only go up"):
            Counter().inc(-1)

    def test_merge_adds(self):
        a, b = Counter(), Counter()
        a.inc(2)
        b.inc(3)
        a.merge(b.payload())
        assert a.value == 5


class TestGauge:
    def test_set_and_merge_last_write_wins(self):
        g = Gauge()
        g.set(1.5)
        g.merge({"value": 9.0})
        assert g.value == 9.0


class TestHistogram:
    def test_bucketing_edges(self):
        h = Histogram(buckets=(1.0, 5.0))
        h.observe(0.5)   # first bucket
        h.observe(1.0)   # upper bound is inclusive (le semantics)
        h.observe(3.0)   # second bucket
        h.observe(99.0)  # overflow (+Inf)
        assert h.counts == [2, 1, 1]
        assert h.count == 4
        assert h.sum == pytest.approx(103.5)

    def test_non_increasing_buckets_rejected(self):
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            Histogram(buckets=(1.0, 1.0))

    def test_merge_requires_same_bounds(self):
        h = Histogram(buckets=(1.0, 2.0))
        other = Histogram(buckets=(1.0, 3.0))
        with pytest.raises(ConfigurationError, match="bucket bounds"):
            h.merge(other.payload())

    def test_merge_accumulates(self):
        a = Histogram(buckets=(1.0,))
        b = Histogram(buckets=(1.0,))
        a.observe(0.5)
        b.observe(2.0)
        a.merge(b.payload())
        assert a.counts == [1, 1]
        assert a.count == 2


class TestRegistry:
    def test_labels_distinguish_series(self):
        reg = MetricsRegistry()
        reg.counter("cache.lookup", outcome="hit").inc()
        reg.counter("cache.lookup", outcome="miss").inc(2)
        assert len(reg) == 2
        assert reg.counter("cache.lookup", outcome="hit").value == 1

    def test_labels_key_is_order_insensitive(self):
        assert labels_key({"a": 1, "b": "x"}) == labels_key({"b": "x", "a": 1})

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigurationError, match="already registered"):
            reg.gauge("x")

    def test_snapshot_is_sorted_and_json_ready(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.gauge("a", tier="fast").set(2.0)
        snap = reg.snapshot()
        assert [r["name"] for r in snap] == ["a", "b"]
        assert snap[0] == {
            "name": "a", "type": "gauge",
            "labels": {"tier": "fast"}, "value": 2.0,
        }

    def test_merge_roundtrip(self):
        src = MetricsRegistry()
        src.counter("n", k="1").inc(3)
        src.histogram("h").observe(0.002)
        dst = MetricsRegistry()
        dst.counter("n", k="1").inc(1)
        dst.merge(src.snapshot())
        assert dst.counter("n", k="1").value == 4
        assert dst.histogram("h").count == 1

    def test_prometheus_rendering(self):
        reg = MetricsRegistry()
        reg.counter("cache.lookup", outcome="hit").inc(3)
        reg.histogram("dur", buckets=(1.0, 2.0)).observe(1.5)
        text = reg.to_prometheus()
        assert "# TYPE cache_lookup counter" in text
        assert 'cache_lookup{outcome="hit"} 3' in text
        # histogram buckets render cumulatively with an +Inf tail
        assert 'dur_bucket{le="1.0"} 0' in text
        assert 'dur_bucket{le="2.0"} 1' in text
        assert 'dur_bucket{le="+Inf"} 1' in text
        assert "dur_sum 1.5" in text
        assert "dur_count 1" in text


class TestLookupFastPath:
    """A metric is found by the labels as its caller passed them; the
    canonical (sorted, stringified) key still decides which series that
    is.  Every case runs twice, so the second round takes the fast
    path."""

    @staticmethod
    def _one_series(reg, name, value) -> dict:
        snap = reg.snapshot()
        assert len(snap) == 1 and snap[0]["value"] == value
        lines = reg.to_prometheus().splitlines()
        assert sum(line.startswith(name + "{") for line in lines) == 1
        return snap[0]["labels"]

    def test_kwargs_in_either_order_are_one_series(self):
        reg = MetricsRegistry()
        for _ in range(2):
            reg.counter("x", a="1", b="2").inc()
            reg.counter("x", b="2", a="1").inc()
        assert self._one_series(reg, "x", 4) == {"a": "1", "b": "2"}

    @pytest.mark.parametrize("first, second", [(1, "1"), ("1", 1)])
    def test_an_int_and_its_string_are_one_series(self, first, second):
        reg = MetricsRegistry()
        for _ in range(2):
            reg.counter("x", v=first).inc()
            reg.counter("x", v=second).inc()
        assert self._one_series(reg, "x", 4) == {"v": "1"}

    def test_equal_values_that_render_apart_stay_apart(self):
        reg = MetricsRegistry()
        for _ in range(2):
            for v in ("1", 1, 1.0, True):
                reg.counter("x", v=v).inc()
        assert {
            rec["labels"]["v"]: rec["value"] for rec in reg.snapshot()
        } == {"1": 4, "1.0": 2, "True": 2}

    def test_an_unhashable_label_value_is_still_counted(self):
        reg = MetricsRegistry()
        for _ in range(2):
            reg.counter("x", v=[1, 2]).inc()
            reg.counter("x", v="[1, 2]").inc()
        assert self._one_series(reg, "x", 4) == {"v": "[1, 2]"}
