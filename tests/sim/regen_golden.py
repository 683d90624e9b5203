"""Regenerate the golden-equivalence JSON files.

Run from the repo root after an *intentional* engine behaviour change:

    PYTHONPATH=src python tests/sim/regen_golden.py
"""

import json
from pathlib import Path

from repro.analysis.scenarios import scenario1_jobs, table1_jobs
from repro.sim.runner import run_comparison
from repro.topology.builders import cluster, power8_minsky

GOLDEN_DIR = Path(__file__).parent / "golden"
#: the policies outside ``run_comparison``'s default four, pinned on
#: the Scenario-1 trace only
EXTRA_POLICIES = ("SJF", "EASY-BACKFILL", "RANDOM", "TOPO-AWARE-PM")


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


if __name__ == "__main__":
    main()
