"""Golden-equivalence pin: the layered engine vs the seed monolith.

The JSON files under ``tests/sim/golden/`` were produced by the
pre-refactor (seed) engine.  The layered kernel (typed events +
ClusterState + observers) must reproduce every JobRecord field
bit-for-bit on the Table 1 prototype scenario and a seeded 100-job
Scenario-1 trace, for all four headline policies.
``scenario1_cluster5_extra.json`` pins the remaining policies (SJF,
EASY-BACKFILL, RANDOM, TOPO-AWARE-PM) on the same Scenario-1 trace.

If an intentional behaviour change ever invalidates these files,
regenerate them with ``python tests/sim/regen_golden.py`` and explain
the change in the commit.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.scenarios import scenario1_jobs, table1_jobs
from repro.cli import SCHEDULER_CHOICES
from repro.schedulers import make_scheduler
from repro.sim.runner import run_comparison
from repro.topology.builders import cluster, power8_minsky

from tests.sim.regen_golden import EXTRA_POLICIES

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_FILES = (
    "table1_power8.json",
    "scenario1_cluster5.json",
    "scenario1_cluster5_extra.json",
)

RECORD_FIELDS = (
    "arrival",
    "placed_at",
    "finished_at",
    "utility",
    "p2p",
    "solo_exec_time",
    "ideal_exec_time",
    "postponements",
    "unplaceable",
    "restarts",
)


def _assert_matches_golden(results, golden_name):
    golden = json.loads((GOLDEN_DIR / golden_name).read_text())
    assert set(results) == set(golden)
    for name, res in results.items():
        pinned = golden[name]
        assert res.makespan == pinned["makespan"], name
        assert res.decision_rounds == pinned["decision_rounds"], name
        assert len(res.records) == len(pinned["records"])
        for rec, grec in zip(res.records, pinned["records"]):
            assert rec.job.job_id == grec["job_id"]
            for field in RECORD_FIELDS:
                assert getattr(rec, field) == grec[field], (
                    f"{name}/{rec.job.job_id}: {field} "
                    f"{getattr(rec, field)!r} != {grec[field]!r}"
                )
            assert list(rec.gpus) == grec["gpus"], f"{name}/{rec.job.job_id}"


def test_table1_prototype_scenario_matches_seed():
    results = run_comparison(power8_minsky, table1_jobs())
    _assert_matches_golden(results, "table1_power8.json")


def test_scenario1_trace_matches_seed():
    results = run_comparison(lambda: cluster(5), scenario1_jobs(100, seed=42))
    _assert_matches_golden(results, "scenario1_cluster5.json")


def test_scenario1_trace_matches_for_the_other_policies():
    results = run_comparison(
        lambda: cluster(5), scenario1_jobs(100, seed=42), EXTRA_POLICIES
    )
    _assert_matches_golden(results, "scenario1_cluster5_extra.json")


def test_golden_covers_every_policy():
    """Every policy the factory builds is pinned on the Scenario-1 trace."""
    policies = {make_scheduler(name).name for name in SCHEDULER_CHOICES}
    scenario1 = set()
    for name in ("scenario1_cluster5.json", "scenario1_cluster5_extra.json"):
        scenario1 |= set(json.loads((GOLDEN_DIR / name).read_text()))
    assert scenario1 == policies
    table1 = json.loads((GOLDEN_DIR / "table1_power8.json").read_text())
    assert set(table1) == {"BF", "FCFS", "TOPO-AWARE", "TOPO-AWARE-P"}


def test_golden_traces_exercise_waiting_and_postponement():
    """The pins are only meaningful if the scenarios stress the queue."""
    golden = json.loads((GOLDEN_DIR / "scenario1_cluster5.json").read_text())
    golden |= json.loads(
        (GOLDEN_DIR / "scenario1_cluster5_extra.json").read_text()
    )
    for name, pinned in golden.items():
        waits = [
            r["placed_at"] - r["arrival"]
            for r in pinned["records"]
            if r["placed_at"] is not None
        ]
        assert any(w > 1e-9 for w in waits), f"{name} never queued a job"


@pytest.mark.parametrize("golden_name", GOLDEN_FILES)
def test_golden_files_are_wellformed(golden_name):
    golden = json.loads((GOLDEN_DIR / golden_name).read_text())
    for pinned in golden.values():
        assert pinned["records"], "empty record list in golden file"
