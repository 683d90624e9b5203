#!/usr/bin/env python
"""Telemetry tour: metrics and the one record stream.

Runs the paper's Table 1 workload under TOPO-AWARE-P with the
observability stack attached — a :class:`TelemetryObserver` feeding a
metrics registry, plus a :class:`DecisionRecorder` installed as the
span sink, so one journal holds the run envelope, every job's
lifecycle, every scheduling decision and the timing spans of the
scheduler's decision path (DRB recursion, FM passes, Eq. 1-5 utility
evaluation) — then shows each view the way the CLI flags
(``--metrics-out``, ``--decisions-out``) and readers (``repro
explain``, ``repro trace summarize``) would.

Run:  python examples/telemetry_tour.py
"""

import json

from repro.analysis.explain import format_job_explanation
from repro.analysis.scenarios import table1_jobs
from repro.obs import MetricsRegistry, recording, render_prometheus, summarize
from repro.obs.provenance import DecisionRecorder, records_of
from repro.obs.telemetry import TelemetryObserver
from repro.schedulers import make_scheduler
from repro.sim.runner import run_with_observers
from repro.topology.builders import power8_minsky


def main() -> None:
    topo = power8_minsky()
    jobs = table1_jobs()

    # 1. Wire the taps: metrics in a registry, records in the recorder.
    registry = MetricsRegistry()
    observer = TelemetryObserver(registry, scheduler="TOPO-AWARE-P")
    recorder = DecisionRecorder(journal=True, registry=registry)

    # 2. Run with the recorder as the span sink — every scheduler
    #    decision leaves a tree of sched.propose/drb.map/fm.bipartition/
    #    utility.evaluate span records next to its decision record.
    with recording(recorder):
        run_with_observers(
            topo,
            make_scheduler("TOPO-AWARE-P"),
            jobs,
            observers=(observer, recorder),
        )

    # 3. Metrics, in Prometheus exposition format.
    print("=== Prometheus metrics (excerpt) ===")
    lines = render_prometheus(registry).splitlines()
    interesting = (
        "repro_jobs_",
        "repro_queue_depth",
        "repro_decision_latency_seconds_count",
        "# HELP repro_decision_latency_seconds ",
    )
    for line in lines:
        if line.startswith(interesting):
            print(line)

    # 4. The record journal (what --decisions-out writes as JSONL).
    records = [json.loads(line) for line in recorder.journal]
    kinds: dict[str, int] = {}
    for record in records:
        kinds[record["kind"]] = kinds.get(record["kind"], 0) + 1
    print("\n=== Record journal ===")
    print(f"{len(records)} records: {kinds}")

    # 5. One job's story: lifecycle, decisions, decision time.
    print("\n=== repro explain job job0 ===")
    print(format_job_explanation("job0", records))

    # 6. The decision path's spans, summarised per job.
    print("\n=== repro trace summarize --job job0 ===")
    print(summarize(records_of("span", records), job_id="job0"))


if __name__ == "__main__":
    main()
