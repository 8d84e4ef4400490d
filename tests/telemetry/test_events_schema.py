"""The JSONL event log: schema validation, writer/reader round trips.

The schema test here is the tier-1 gate for the event-log format: a
real instrumented sweep is flushed to disk and *every* line must
validate against :func:`repro.telemetry.events.validate_record`.
"""

import json

from repro import telemetry
from repro.runner import ClientConfig, ExperimentRunner
from repro.telemetry.events import (
    EVENT_SCHEMA_VERSION,
    read_jsonl,
    validate_record,
    write_jsonl,
)


class TestValidateRecord:
    def test_rejects_non_objects(self):
        assert validate_record([1, 2]) == ["record is not a JSON object"]

    def test_rejects_missing_envelope(self):
        errors = validate_record({"kind": "event"})
        assert any("run" in e for e in errors)
        assert any("schema" in e for e in errors)

    def test_rejects_unknown_kind(self):
        errors = validate_record(
            {"run": "r", "schema": EVENT_SCHEMA_VERSION, "kind": "mystery"}
        )
        assert errors == ["unknown kind 'mystery'"]

    def test_rejects_histogram_count_mismatch(self):
        errors = validate_record({
            "run": "r", "schema": EVENT_SCHEMA_VERSION, "kind": "metric",
            "name": "h", "type": "histogram", "labels": {},
            "buckets": [1.0, 2.0], "counts": [1, 2],  # needs 3 bins
            "sum": 1.0, "count": 3,
        })
        assert any("len(buckets) + 1" in e for e in errors)

    def test_accepts_minimal_event(self):
        assert validate_record({
            "run": "r", "schema": EVENT_SCHEMA_VERSION, "kind": "event",
            "name": "e", "seq": 1, "pid": 42, "attrs": {},
        }) == []


class TestReadWrite:
    def test_corrupt_lines_skipped_with_problems(self, tmp_path):
        path = tmp_path / "log.jsonl"
        good = {
            "run": "r", "schema": EVENT_SCHEMA_VERSION, "kind": "event",
            "name": "e", "seq": 1, "pid": 1, "attrs": {},
        }
        path.write_text(
            json.dumps(good) + "\n"
            + "{not json\n"
            + json.dumps({"kind": "event"}) + "\n"
        )
        records, problems = read_jsonl(path)
        assert len(records) == 1
        assert len(problems) == 2
        assert problems[0].startswith("line 2:")

    def test_write_creates_parents(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "log.jsonl"
        write_jsonl(path, [{"a": 1}])
        assert json.loads(path.read_text()) == {"a": 1}


class TestSweepLogSchema:
    def test_every_line_of_a_real_sweep_validates(
        self, tiny_specs, tmp_path,
    ):
        """Tier-1 gate: an instrumented sweep emits only valid records."""
        sink = tmp_path / "run.jsonl"
        runner = ExperimentRunner(
            cache=str(tmp_path / "cache"), client=ClientConfig(seed=7),
        )
        with telemetry.session(run_id="schema-test", sink=sink):
            runner.sweep(tiny_specs)

        lines = sink.read_text().splitlines()
        assert lines, "sweep wrote no telemetry"
        header = json.loads(lines[0])
        assert header["kind"] == "run"
        assert header["run"] == "schema-test"
        kinds = set()
        for lineno, line in enumerate(lines, start=1):
            obj = json.loads(line)
            problems = validate_record(obj)
            assert not problems, f"line {lineno}: {problems}"
            kinds.add(obj["kind"])
        assert {"run", "span", "metric"} <= kinds
