"""Trace persistence.

The paper's simulator is fed by traces recorded from prototype runs
("the trace files are parsed and transformed into a format compatible
with the simulator", Section 5.3).  Here a trace is the job list plus,
optionally, the per-job outcome records of a finished run, serialised
as JSON so prototype logs and simulator inputs round-trip.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from repro.sim.engine import JobRecord
from repro.workload.manifest import dumps_manifest, loads_manifest
from repro.workload.job import Job


def records_to_rows(records: Sequence[JobRecord]) -> list[dict]:
    """Flatten records into JSON-serialisable rows keyed by job ``id``."""
    return [{"id": r.job.job_id, **r.to_dict()} for r in records]


def save_trace(
    path: str | Path,
    jobs: Sequence[Job],
    records: Sequence[JobRecord] | None = None,
    scheduler: str | None = None,
) -> None:
    """Write a trace file: the manifest plus optional outcome rows."""
    doc = {
        "manifest": json.loads(dumps_manifest(jobs)),
        "scheduler": scheduler,
        "records": records_to_rows(records) if records is not None else None,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_trace(path: str | Path) -> tuple[list[Job], list[dict] | None, str | None]:
    """Load a trace file -> (jobs, outcome rows or None, scheduler name)."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or "manifest" not in doc:
        raise ValueError(f"{path}: not a trace file")
    jobs = loads_manifest(json.dumps(doc["manifest"]))
    return jobs, doc.get("records"), doc.get("scheduler")
