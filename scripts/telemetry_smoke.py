#!/usr/bin/env python
"""CI smoke check: one telemetry-enabled simulation, artifacts validated.

Runs ``repro simulate`` with ``--metrics-out`` and ``--decisions-out``
on a 30-job workload, then re-reads both artifacts through the strict
parsers:

* the Prometheus exposition must parse, expose >= 12 metric families,
  and include the decision-latency histogram and queue-depth gauge;
* every line of the record journal must pass the one reader
  (``read_records``), every job must have arrival, placement and
  finish records, and every placed job a ``sched.propose`` span;
* ``repro trace summarize`` and ``repro explain job`` must render
  non-empty output from that same file.

Exits non-zero (with a message) on any violation.  Budget: well under
30 s.

Run:  PYTHONPATH=src python scripts/telemetry_smoke.py
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from repro.cli import main as repro_main
from repro.obs import parse_prometheus, read_records

JOBS = 30


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run_cli(argv: list[str]) -> str:
    """Run one ``repro`` command; return its stdout (exit 0 required)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = repro_main(argv)
    if code != 0:
        fail(f"repro {' '.join(argv)} exited with {code}")
    return out.getvalue()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        metrics = Path(tmp) / "metrics.prom"
        journal = Path(tmp) / "records.jsonl"
        run_cli(
            ["simulate", "--scheduler", "topo-aware-p",
             "--jobs", str(JOBS), "--machines", "2", "--seed", "42",
             "--metrics-out", str(metrics),
             "--decisions-out", str(journal)]
        )

        # -- metrics ---------------------------------------------------
        families = parse_prometheus(metrics.read_text())
        if len(families) < 12:
            fail(f"only {len(families)} metric families (need >= 12)")
        hist = families.get("repro_decision_latency_seconds")
        if hist is None or hist["type"] != "histogram":
            fail("repro_decision_latency_seconds histogram missing")
        gauge = families.get("repro_queue_depth")
        if gauge is None or gauge["type"] != "gauge":
            fail("repro_queue_depth gauge missing")

        # -- the record journal ----------------------------------------
        records = read_records(journal)  # schema-validates every line
        jobs = [r for r in records if r["kind"] == "job"]
        arrived = {r["job_id"] for r in jobs
                   if r["state"] == "QUEUED" and not r.get("restart")}
        placed = {r["job_id"] for r in jobs if r["state"] == "RUNNING"}
        finished = {r["job_id"] for r in jobs if r["state"] == "FINISHED"}
        if len(arrived) != JOBS:
            fail(f"{len(arrived)} arrival records for {JOBS} jobs")
        if not (arrived == placed == finished):
            fail(
                "lifecycle coverage gap: "
                f"arrived-placed={sorted(arrived - placed)} "
                f"placed-finished={sorted(placed - finished)}"
            )
        spans = [r for r in records if r["kind"] == "span"]
        proposed = {s["attrs"].get("job_id") for s in spans
                    if s["name"] == "sched.propose"}
        if placed - proposed:
            fail(f"placed jobs without a sched.propose span: "
                 f"{sorted(placed - proposed)}")

        # -- the readers, on the same file -----------------------------
        timeline = run_cli(["trace", "summarize", str(journal)])
        if "sched.propose" not in timeline:
            fail("trace summary has no sched.propose spans")
        job_id = min(placed)
        story = run_cli(["explain", "job", job_id, str(journal)])
        if "decision time: sched.propose" not in story:
            fail(f"explain job {job_id} shows no decision time")

    print(
        f"telemetry smoke OK: {len(families)} metric families, "
        f"{len(records)} records covering {len(arrived)} jobs, "
        f"{len(spans)} spans"
    )


if __name__ == "__main__":
    main()
