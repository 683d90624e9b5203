"""Regenerate the golden-equivalence JSON files and the decision
journal digests.

Run from the repo root after an *intentional* engine or decision
record change:

    PYTHONPATH=src python tests/sim/regen_golden.py
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

from repro.analysis.scenarios import scenario1_jobs, scenario2_jobs, table1_jobs
from repro.obs.provenance import DecisionRecorder
from repro.schedulers import make_scheduler
from repro.sim.engine import Simulator
from repro.sim.runner import run_comparison
from repro.topology.builders import cluster, power8_minsky

GOLDEN_DIR = Path(__file__).parent / "golden"
#: the policies outside ``run_comparison``'s default four, pinned on
#: the Scenario-1 trace only
EXTRA_POLICIES = ("SJF", "EASY-BACKFILL", "RANDOM", "TOPO-AWARE-PM")


def _every_fifth_high(jobs):
    return [
        replace(job, priority=1) if i % 5 == 4 else job
        for i, job in enumerate(jobs)
    ]


#: name -> (machines, policy, trace) of the runs whose decision
#: journals are pinned.  The TOPO-AWARE-P run writes ``no-fit``
#: records of jobs postponed in earlier rounds; the TOPO-AWARE-PM run
#: (every fifth job at priority 1) writes a ``preempt`` record of one.
JOURNAL_RUNS = {
    "scenario2-topo-aware-p": (
        24, "TOPO-AWARE-P", lambda: scenario2_jobs(300, 24, seed=11)
    ),
    "scenario2-topo-aware-pm": (
        8, "TOPO-AWARE-PM",
        lambda: _every_fifth_high(scenario2_jobs(150, 8, seed=3)),
    ),
}


def journal_lines(name: str) -> list[str]:
    """The decision journal of one :data:`JOURNAL_RUNS` run.  No span
    sink is installed and the decision clock reads 0, so every line is
    a function of the trace."""
    machines, policy, make_jobs = JOURNAL_RUNS[name]
    recorder = DecisionRecorder(journal=True)
    Simulator(
        cluster(machines), make_scheduler(policy), make_jobs(),
        observers=[recorder], decision_clock=lambda: 0.0,
    ).run()
    return recorder.journal


def journal_digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def dump(results, path: Path) -> None:
    out = {}
    for name, res in results.items():
        out[name] = {
            "makespan": res.makespan,
            "decision_rounds": res.decision_rounds,
            "records": [
                {
                    "job_id": r.job.job_id,
                    "arrival": r.arrival,
                    "placed_at": r.placed_at,
                    "finished_at": r.finished_at,
                    "gpus": list(r.gpus),
                    "utility": r.utility,
                    "p2p": r.p2p,
                    "solo_exec_time": r.solo_exec_time,
                    "ideal_exec_time": r.ideal_exec_time,
                    "postponements": r.postponements,
                    "unplaceable": r.unplaceable,
                    "restarts": r.restarts,
                }
                for r in res.records
            ],
        }
    path.write_text(json.dumps(out, indent=1, sort_keys=True))
    print(f"wrote {path}")


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    dump(
        run_comparison(power8_minsky, table1_jobs()),
        GOLDEN_DIR / "table1_power8.json",
    )
    dump(
        run_comparison(lambda: cluster(5), scenario1_jobs(100, seed=42)),
        GOLDEN_DIR / "scenario1_cluster5.json",
    )
    dump(
        run_comparison(
            lambda: cluster(5),
            scenario1_jobs(100, seed=42),
            EXTRA_POLICIES,
        ),
        GOLDEN_DIR / "scenario1_cluster5_extra.json",
    )
    path = GOLDEN_DIR / "journal_digests.json"
    digests = {name: journal_digest(journal_lines(name)) for name in JOURNAL_RUNS}
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
