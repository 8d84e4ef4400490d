"""Span tracing: nesting, attributes, disabled no-ops, tree rebuild."""

import os

import pytest

from repro import telemetry
from repro.telemetry.spans import NULL_SPAN, Tracer, build_tree


class TestTracer:
    def test_nesting_records_parentage(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        inner_rec, outer_rec = tracer.records
        assert inner_rec.name == "inner"
        assert inner_rec.parent_id == outer.span_id
        assert outer_rec.parent_id is None
        assert outer_rec.duration_ns >= inner_rec.duration_ns >= 0
        assert outer_rec.pid == os.getpid()

    def test_attrs_settable_while_open(self):
        tracer = Tracer()
        with tracer.span("s", fixed=1) as sp:
            sp.set("late", "value")
        assert tracer.records[0].attrs == {"fixed": 1, "late": "value"}

    def test_exception_tagged_and_propagated(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        assert tracer.records[0].attrs["error"] == "ValueError"

    def test_ids_unique_and_pid_prefixed(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        ids = {r.span_id for r in tracer.records}
        assert len(ids) == 2
        assert all(i.startswith(f"{os.getpid():x}-") for i in ids)


class TestDisabledHooks:
    def test_span_returns_shared_null_span(self):
        assert not telemetry.enabled()
        sp = telemetry.span("anything", label="x")
        assert sp is NULL_SPAN
        with sp as inner:
            inner.set("k", "v")  # swallowed

    def test_all_hooks_are_noops(self):
        assert not telemetry.enabled()
        telemetry.count("c", kind="x")
        telemetry.gauge("g", 1.0)
        telemetry.observe("h", 0.5)
        telemetry.event("e", a=1)
        assert telemetry.get() is None


class TestBuildTree:
    def _span(self, sid, parent, pid=1, start=0):
        return {"span": sid, "parent": parent, "pid": pid,
                "start_ns": start, "name": sid, "duration_ns": 1,
                "attrs": {}}

    def test_reassembles_children_under_parents(self):
        spans = [
            self._span("a", None, start=0),
            self._span("b", "a", start=1),
            self._span("c", "a", start=2),
        ]
        roots, children = build_tree(spans)
        assert [r["span"] for r in roots] == ["a"]
        assert [c["span"] for c in children["a"]] == ["b", "c"]

    def test_orphan_parent_becomes_root(self):
        roots, _ = build_tree([self._span("x", "missing")])
        assert [r["span"] for r in roots] == ["x"]

    def test_sibling_order_is_pid_then_start(self):
        spans = [
            self._span("late", "r", pid=2, start=0),
            self._span("early", "r", pid=1, start=5),
            self._span("r", None),
        ]
        _, children = build_tree(spans)
        assert [c["span"] for c in children["r"]] == ["early", "late"]
