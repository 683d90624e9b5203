"""Start the ``repro serve`` daemon with the benchmark's taps installed.

Usage: ``launcher.py --out FILE [--trace] -- <repro CLI arguments>``.

The launcher adds one observer that keeps the engine's elapsed time of
every decision round that had work, and, with ``--trace``, wraps the
program's layers (see ``layers.py``).  For each ``reference`` line on
its standard input it times the reference loop of ``speed.py`` in the
daemon process and prints ``reference <cpu ms> <wall ms>``; the load
generator asks while the daemon is idle, before and after the load.
It then enters the program's own CLI entry point unchanged.  When the daemon has shut down (SIGTERM) it
writes what it collected to ``FILE`` as JSON, and the kept spans next
to it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracer import Tracer  # noqa: E402
import layers  # noqa: E402
import speed  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = p.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    from repro.cli import main as repro_main
    from repro.service.daemon import SchedulerService

    tap = layers.make_round_tap()
    services = []
    init = SchedulerService.__init__

    def tapped_init(self, *a, **kw):
        kw["extra_observers"] = (*kw.get("extra_observers", ()), tap)
        init(self, *a, **kw)
        self.sim.decision_clock = layers.ROUND_CLOCK
        tap.bind(self.sim.cluster.engine)
        services.append(self)

    SchedulerService.__init__ = tapped_init

    def answer_reference_requests():
        for line in sys.stdin:
            if line.strip() == "reference":
                cpu_ms, wall_ms = speed.reference_loops(3)
                print(f"reference {cpu_ms!r} {wall_ms!r}", flush=True)

    threading.Thread(target=answer_reference_requests, daemon=True).start()

    tracer = None
    marks: dict = {}
    if args.trace:
        tracer = Tracer(keep_spans=400_000, tails=layers.TAILS)
        layers.install(tracer)
        layers.install_service(tracer, marks)
        tracer.install_gc()

    rc = repro_main(argv)

    out = {
        "rc": rc,
        "rounds_ms": tap.rounds_ms,
        "placements": tap.placements,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if services:
        svc = services[0]
        out["counters"] = layers.engine_counters(
            svc.result(), svc.decision_recorder
        )
    if tracer is not None:
        tracer.remove_gc()
        summary = tracer.summary()
        out["layers"] = layers.layer_metrics(
            summary, out["counters"], tap.placements
        )
        # per job: when its POST handler started (the parent span of
        # svc.submit), when it entered and left the admission inbox
        handler_start = {}
        starts = {span[0]: span[4] for span in tracer.spans
                  if span[2] == "svc.http.post"}
        for span in tracer.spans:
            if span[2] == "svc.submit" and span[1] in starts:
                handler_start[span[6]] = starts[span[1]]
        out["jobs"] = {
            job_id: [handler_start.get(job_id), enq, popped]
            for job_id, (enq, popped) in marks.items()
        }
        out["spans_dropped"] = tracer.spans_dropped
        tracer.dump(args.out.with_suffix(".spans.jsonl"))
        summary.pop("durations_ms")
        args.out.with_suffix(".trace.json").write_text(
            json.dumps({"counters": out["counters"], "summary": summary},
                       indent=1)
        )
    args.out.write_text(json.dumps(out))
    return rc


if __name__ == "__main__":
    sys.exit(main())
