"""One batch simulation in a fresh process (spawned by ``run.py``).

Prints ``ready <monotonic stamp>`` once imports, topology, trace and
simulator are built, then runs ``Simulator.run`` and prints one JSON
line: timings, the decision rounds that had work, correctness checks,
the record digest, the program's own counters and, when traced, the
per-layer aggregates.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracer import Tracer, clock  # noqa: E402
import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.BATCH))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rep", type=int, required=True)
    p.add_argument("--jobs", type=int, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--inject", default=None)
    args = p.parse_args()

    from repro.analysis.bench import RECORD_FIELDS
    from repro.schedulers import make_scheduler
    from repro.sim.engine import Simulator
    from repro.sim.metrics import summarize
    from repro.topology.builders import cluster

    spec = workloads.BATCH[args.workload]
    topo = cluster(spec["machines"])
    jobs = workloads.batch_trace(
        args.workload, workloads.rep_seed(args.seed, args.rep), args.jobs
    )
    tap = layers.make_round_tap()
    sim = Simulator(topo, make_scheduler(spec["scheduler"]), jobs,
                    observers=[tap], decision_clock=layers.ROUND_CLOCK)
    tap.bind(sim.cluster.engine)
    print(f"ready {clock()!r}", flush=True)

    tracer = None
    if args.trace:
        tracer = Tracer(keep_spans=50_000, tails=layers.TAILS)
        layers.install(tracer)
        tracer.wrap(sim, "run", "bench.run")
        tracer.install_gc()
    ref = [speed.reference_loops(1)]
    cpu0 = time.process_time()
    t0 = clock()
    result = sim.run()
    wall = clock() - t0
    cpu = time.process_time() - cpu0
    if tracer is not None:
        tracer.remove_gc()
    ref.append(speed.reference_loops(1))

    records = result.records
    if args.inject == "digest":
        records[0].utility = (records[0].utility or 0.0) + 1e-9
    alloc = sim.cluster.alloc
    checks = {
        "all_terminal": all(r.terminal for r in records),
        "none_unplaceable": not any(r.unplaceable for r in records),
        "all_gpus_free": (
            not sim.cluster.running
            and alloc.total_free_count() == len(topo.gpus())
        ),
        "gpu_count_matches": all(
            len(r.gpus) == r.job.num_gpus for r in records
        ),
        "job_count": len(records) == args.jobs,
    }
    bad_jobs = sum(
        1 for r in records
        if not r.terminal or r.unplaceable or len(r.gpus) != r.job.num_gpus
    )
    summary = summarize(result)
    counters = layers.engine_counters(result)
    out = {
        "jobs": len(records),
        "bad_jobs": bad_jobs,
        "wall_s": wall,
        "cpu_s": cpu,
        "ref_ms": [sum(r[0] for r in ref) / 2, sum(r[1] for r in ref) / 2],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "rounds_ms": tap.rounds_ms,
        "placements": tap.placements,
        "digest": workloads.records_digest(records, RECORD_FIELDS),
        "checks": checks,
        "sim": {
            "makespan_s": summary["makespan_s"],
            "mean_qos_slowdown": summary["mean_qos_slowdown"],
            "mean_waiting_s": summary["mean_waiting_s"],
            "slo_violations": summary["slo_violations"],
        },
        "counters": counters,
    }
    if tracer is not None:
        trace = tracer.summary()
        root = trace["stats"].get("bench.run", [0, 0.0, 0.0])
        out["layers"] = layers.layer_metrics(trace, counters, tap.placements)
        out["unattributed_ms"] = root[2] * 1e3
        out["blocking_ms"] = root[1] * 1e3
        stem = args.out_dir / f"{args.workload}-seed{args.seed}-rep{args.rep}"
        tracer.dump(stem.with_suffix(".spans.jsonl"))
        trace.pop("durations_ms")
        stem.with_suffix(".trace.json").write_text(
            json.dumps({"counters": counters, "summary": trace}, indent=1)
        )
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
