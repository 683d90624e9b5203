"""Re-pin the record digests of the default seed in ``digests.json``.

    python3 perfbench/pin_digests.py

Run it only after a change that is meant to alter scheduling
decisions: a digest covers every ``RECORD_FIELDS`` value of every job,
so any other change that moves one is a behaviour regression.  Pins
cover the simulations a full-size run makes at the default seed and the
three a self-test run makes at its reduced size.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: simulations pinned per workload at full size (a 30 s run makes
#: about 4 fig11-batch and 27 pm-contended simulations)
FULL_REPS = {"fig11-batch": 8, "pm-contended": 40}
#: jobs per simulation in the self-test, and its simulations per run
SELFTEST_JOBS = 40
SELFTEST_REPS = 3


def digest(workload: str, rep: int, n_jobs: int) -> str:
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(workloads.DEFAULT_SEED), "--rep", str(rep),
         "--jobs", str(n_jobs), "--out-dir", str(HERE)],
        check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout.splitlines()[-1])["digest"]


def main() -> int:
    pins = {}
    for workload, spec in workloads.BATCH.items():
        for n_jobs, reps in ((spec["jobs"], FULL_REPS[workload]),
                             (SELFTEST_JOBS, SELFTEST_REPS)):
            for rep in range(reps):
                key = (f"{workload}/seed={workloads.DEFAULT_SEED}"
                       f"/rep={rep}/jobs={n_jobs}")
                pins[key] = digest(workload, rep, n_jobs)
                print(key, pins[key][:16], flush=True)
    (HERE / "digests.json").write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
