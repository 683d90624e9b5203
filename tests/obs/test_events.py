"""The one record stream's schema: envelope, validation, JSONL reader.

Every record the flight recorder writes — decisions, job lifecycle,
rounds, failures, alerts, the run envelope and timing spans — shares
one envelope and one reader (``read_records``).
"""

import gzip
import json

import pytest

from repro.analysis.scenarios import table1_jobs
from repro.obs.provenance import (
    PROVENANCE_SCHEMA_VERSION,
    RECORD_KINDS,
    DecisionRecorder,
    read_records,
    records_of,
    validate_record,
)
from repro.obs.trace import recording, span


def minimal(kind: str, **extra) -> dict:
    """A record of ``kind`` carrying exactly its required fields."""
    record = {"schema": PROVENANCE_SCHEMA_VERSION, "seq": 1, "kind": kind,
              "scheduler": "TOPO-AWARE-P"}
    record.update({f: 0 for f in RECORD_KINDS[kind]})
    if kind == "decision":
        record["verdict"] = "placed"
    record.update(extra)
    return record


def small_journal() -> DecisionRecorder:
    """A recorder fed one of each record kind by hand."""
    jobs = table1_jobs()
    rec = DecisionRecorder(journal=True, scheduler="TOPO-AWARE-P")
    rec.on_arrival(0.5, jobs[0])
    rec.decision(t=0.5, scheduler="TOPO-AWARE-P", job=jobs[0], queued=1,
                 verdict="no-fit", reason="capacity")
    with recording(rec):
        with span("sched.propose", job_id=jobs[0].job_id):
            pass
    rec.on_failure(1.0, "m0", [jobs[0]])
    rec.on_requeue(1.0, jobs[0])
    rec.alert({"rule": "r", "signal": "queue_depth", "op": ">", "value": 3.0,
               "threshold": 1.0, "severity": "warning", "state": "firing",
               "t": 1.0, "round": 0})
    rec.on_decision_round(1.0, [], 1, 0.0)
    return rec


class TestEmit:
    def test_envelope_fields(self):
        rec = DecisionRecorder(journal=True)
        rec.on_arrival(1.5, table1_jobs()[0])
        (record,) = map(json.loads, rec.journal)
        assert record["schema"] == PROVENANCE_SCHEMA_VERSION
        assert record["seq"] == 1
        assert record["kind"] == "job"
        assert record["t"] == 1.5

    def test_sequence_numbers_are_monotone(self):
        records = [json.loads(line) for line in small_journal().journal]
        seqs = [r["seq"] for r in records]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_missing_required_field_raises(self):
        record = minimal("failure")
        del record["victims"]
        with pytest.raises(ValueError, match="missing fields"):
            validate_record(record)

    def test_unknown_type_raises(self):
        record = {**minimal("job"), "kind": "teleport"}
        with pytest.raises(ValueError, match="unknown record kind"):
            validate_record(record)

    def test_per_event_scheduler_override(self):
        rec = DecisionRecorder(journal=True, scheduler="default")
        rec.decision(t=0.0, scheduler="BF", job=table1_jobs()[0], queued=1,
                     verdict="no-fit")
        (record,) = map(json.loads, rec.journal)
        assert record["scheduler"] == "BF"

    def test_of_type_filter(self):
        records = [json.loads(line) for line in small_journal().journal]
        assert [r["machine"] for r in records_of("failure", records)] == ["m0"]


class TestValidate:
    def test_every_declared_type_has_required_fields(self):
        for kind in RECORD_KINDS:
            record = minimal(kind)
            assert validate_record(record) is record

    def test_rejects_future_schema(self):
        with pytest.raises(ValueError, match="unsupported record schema"):
            validate_record(minimal("job", schema=99))

    def test_rejects_non_numeric_time(self):
        with pytest.raises(ValueError, match="numeric"):
            validate_record(minimal("job", t="later"))

    def test_extra_fields_are_forward_compatible(self):
        validate_record(minimal("job", note="extra is fine"))


class TestJsonlRoundTrip:
    def test_write_then_read(self, tmp_path):
        rec = small_journal()
        records = read_records(rec.write_journal(tmp_path / "r.jsonl"))
        assert [json.dumps(r) for r in records] == rec.journal
        assert {r["kind"] for r in records} == {
            "job", "decision", "span", "failure", "alert", "round"
        }

    def test_gzip_round_trip(self, tmp_path):
        rec = small_journal()
        path = rec.write_journal(tmp_path / "r.jsonl.gz")
        with gzip.open(path, "rt") as fp:
            assert fp.read().splitlines() == rec.journal
        assert [json.dumps(r) for r in read_records(path)] == rec.journal

    def test_read_rejects_corrupt_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps(minimal("job"))
        path.write_text(good + '\n{"schema": 1, "seq": 2, "kind": "round"}\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:2: round record "
                           "missing fields"):
            read_records(path)

    def test_read_rejects_non_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(minimal("job")) + "\nnot json\n")
        with pytest.raises(ValueError, match=r"bad\.jsonl:2: not JSON"):
            read_records(path)
