"""``RunSnapshot.to_dict`` renders the same document as the
``dataclasses.asdict`` version it replaced."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

from repro.obs.state import STATE_SCHEMA_VERSION, RunSnapshot


@dataclass(frozen=True)
class _AsdictSnapshot:
    """Test-only copy of the ``asdict`` rendering: ``job_states`` as
    the sorted (job_id, state) rows the snapshot used to hold."""

    scheduler: str = ""
    sim_time: float = 0.0
    wall_time: float = 0.0
    decision_rounds: int = 0
    queue_depth: int = 0
    running_jobs: tuple[str, ...] = ()
    queued_jobs: tuple[str, ...] = ()
    gpus_busy: int = 0
    total_gpus: int = 0
    free_gpus_by_machine: tuple[tuple[str, int], ...] = ()
    allocation_epoch: int = 0
    placement_cache: tuple[tuple[str, float], ...] = ()
    finished: bool = False
    makespan: float = 0.0
    job_states: tuple[tuple[str, str], ...] = ()
    decision_stats: tuple[tuple[str, int], ...] = ()

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["schema"] = STATE_SCHEMA_VERSION
        doc["running_jobs"] = list(self.running_jobs)
        doc["queued_jobs"] = list(self.queued_jobs)
        doc["free_gpus_by_machine"] = dict(self.free_gpus_by_machine)
        doc["placement_cache"] = dict(self.placement_cache)
        doc["job_states"] = dict(self.job_states)
        doc["decision_stats"] = dict(self.decision_stats)
        return doc


def _every_field_set() -> dict:
    return dict(
        scheduler="TOPO-AWARE-P",
        sim_time=1234.5,
        wall_time=1.7e9 + 0.25,
        decision_rounds=42,
        queue_depth=2,
        running_jobs=("j3", "j1"),
        queued_jobs=("j9", "j4"),
        gpus_busy=6,
        total_gpus=16,
        free_gpus_by_machine=(("m1", 2), ("m0", 4)),
        allocation_epoch=17,
        placement_cache=(("hits", 3.0), ("hit_rate", 0.75)),
        finished=True,
        makespan=4321.0,
        decision_stats=(("recorded", 12), ("dropped", 1)),
    )


def test_to_dict_matches_the_asdict_rendering():
    # insertion order is deliberately not id order
    states = {"j9": "QUEUED", "j1": "RUNNING", "j10": "FINISHED",
              "j3": "RUNNING", "j4": "SUBMITTED"}
    values = _every_field_set()
    new = RunSnapshot(job_states=states, **values)
    old = _AsdictSnapshot(job_states=tuple(sorted(states.items())), **values)
    # the fixture really sets every field away from its default
    for f in fields(RunSnapshot):
        assert getattr(new, f.name) != getattr(RunSnapshot(), f.name), f.name

    doc = new.to_dict()
    assert doc == old.to_dict()
    assert json.dumps(doc) == json.dumps(old.to_dict())
    assert list(doc["job_states"]) == sorted(states)
    assert doc["schema"] == STATE_SCHEMA_VERSION == 4
    assert "events_seen" not in doc


def test_default_snapshot_matches_the_asdict_rendering():
    assert json.dumps(RunSnapshot().to_dict()) == json.dumps(
        _AsdictSnapshot().to_dict()
    )
