"""The record contract every bit-identity check compares."""

from __future__ import annotations

import dataclasses

from repro.analysis.bench import (
    COMPARED_FIELDS,
    RECORD_FIELDS,
    first_record_difference,
)
from repro.sim.records import JobRecord, SimulationResult
from repro.workload.job import Job, ModelType


def _result(*records: JobRecord) -> SimulationResult:
    return SimulationResult("FCFS", list(records), 0.0, 0.0, 0)


def _record(job_id: str, **fields) -> JobRecord:
    return JobRecord(Job(job_id, ModelType.ALEXNET, 1, 1), arrival=0.0, **fields)


def test_the_contract_keeps_its_fields_and_order():
    # perfbench builds its pinned record digests from these, in order
    assert RECORD_FIELDS == (
        "arrival", "placed_at", "finished_at", "gpus", "utility", "p2p",
        "solo_exec_time", "ideal_exec_time", "postponements",
        "unplaceable", "restarts",
    )
    assert COMPARED_FIELDS == RECORD_FIELDS + (
        "cancelled_at", "preemptions", "migrations",
    )
    names = {f.name for f in dataclasses.fields(JobRecord)}
    assert set(COMPARED_FIELDS) == names - {"job"}


def test_length_then_order_then_field():
    a = _result(_record("a", utility=0.5), _record("b"))
    assert first_record_difference(
        a, _result(_record("a", utility=0.5), _record("b"))
    ) is None
    assert first_record_difference(a, _result(_record("a"))) == (
        "2 records against 1"
    )
    assert first_record_difference(
        a, _result(_record("b"), _record("a", utility=0.5))
    ) == "record order diverges at a/b"
    assert first_record_difference(
        a, _result(_record("a", utility=0.25), _record("b"))
    ) == "a.utility: 0.5 != 0.25"


def test_every_compared_field_is_compared():
    changed = {
        "arrival": 1.0, "placed_at": 1.0, "finished_at": 1.0,
        "gpus": ("m0/gpu1",), "utility": 1.0, "p2p": True,
        "solo_exec_time": 1.0, "ideal_exec_time": 1.0, "postponements": 1,
        "unplaceable": True, "restarts": 1, "cancelled_at": 1.0,
        "preemptions": 1, "migrations": 1,
    }
    assert set(changed) == set(COMPARED_FIELDS)
    base = _result(_record("a"))
    for name, value in changed.items():
        other = _result(dataclasses.replace(base.records[0], **{name: value}))
        diff = first_record_difference(base, other)
        assert diff is not None and diff.startswith(f"a.{name}: "), name
