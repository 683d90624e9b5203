"""Benchmark entry point: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload fig11-batch --seed 1 --seconds 30 --trace 0

Every simulation or daemon runs in a fresh process started by this
script, so set-up time is measured from process spawn.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  The lines before it are a
readable report.  See ``perfbench/README.md`` for the workloads and
what each metric predicts.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import queue
import random
import signal
import sqlite3
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

from tracer import clock, percentile  # noqa: E402
import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = (*workloads.BATCH, "serve-live")

END_TO_END = [
    ("setup_s", "s"),
    ("round_p50_ms", "ms"),
    ("round_tail_ms", "ms"),
    ("cpu_ms_per_job", "ms"),
    ("peak_rss_mb", "MB"),
]
#: the percentile reported as ``round_tail_ms``: the highest one with
#: at least ten samples beyond it in every run that also stays within
#: a tenth from run to run (see README.md)
TAIL_PCT = {"fig11-batch": 99.0, "pm-contended": 99.0, "serve-live": 99.0}
#: simulations per run are time-bounded but never fewer than this, so
#: set-up time is always a median of several spawns
MIN_REPS = 3
#: daemon segments per serve-live run (each a fresh daemon)
SERVE_SEGMENTS = 3
EXPECTED_HOPS = [
    (None, "SUBMITTED"),
    ("SUBMITTED", "QUEUED"),
    ("QUEUED", "PLACED"),
    ("PLACED", "RUNNING"),
    ("RUNNING", "FINISHED"),
]
CHILD_TIMEOUT_S = 120.0


class BenchError(RuntimeError):
    """A child process failed; the run prints no result."""


class Child:
    """A spawned process whose stdout lines arrive on a queue."""

    def __init__(self, argv: list[str]) -> None:
        # a fixed string-hash seed: set iteration order, and with it the
        # allocation pattern and GC timing, repeats from run to run
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1",
                   PYTHONHASHSEED="0")
        self.spawned = clock()
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env, cwd=ROOT,
        )
        self.lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def line(self, timeout: float = CHILD_TIMEOUT_S) -> str:
        try:
            line = self.lines.get(timeout=timeout)
        except queue.Empty:
            raise BenchError(f"{self.proc.args[1]}: no output") from None
        if line is None:
            raise BenchError(f"{self.proc.args[1]}: exited early")
        return line

    def wait(self, timeout: float = CHILD_TIMEOUT_S) -> int:
        try:
            rc = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise BenchError(f"{self.proc.args[1]}: timed out") from None
        self._reader.join(timeout=5.0)
        return rc

    def terminate(self, attempts: int = 3, timeout: float = 10.0) -> int:
        """SIGTERM until the process exits; returns its exit code.

        Re-sent because a signal to the multi-threaded daemon was seen
        to go unhandled once in about ten starts.
        """
        for _ in range(attempts):
            self.proc.send_signal(signal.SIGTERM)
            try:
                rc = self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                continue
            self._reader.join(timeout=5.0)
            return rc
        raise BenchError(f"{self.proc.args[1]}: ignored SIGTERM")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdin.close()
        self._reader.join(timeout=5.0)


# ----------------------------------------------------------------------
# batch workloads: one Simulator.run per worker process
# ----------------------------------------------------------------------
def run_worker(args, rep: int, n_jobs: int, trace: bool) -> dict:
    child = Child([
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--rep", str(rep), "--jobs", str(n_jobs),
        "--trace", str(int(trace)), "--out-dir", str(OUT),
        *(["--inject", args.inject] if args.inject else []),
    ])
    try:
        ready = child.line()
        if not ready.startswith("ready "):
            raise BenchError(f"worker: unexpected line {ready!r}")
        result = json.loads(child.line())
        if child.wait() != 0:
            raise BenchError("worker failed")
    finally:
        child.kill()
    result["setup_s"] = float(ready.split()[1]) - child.spawned
    result["rep"] = rep
    return result


def run_batch(args, pins: dict) -> dict:
    n_jobs = args.jobs or workloads.BATCH[args.workload]["jobs"]
    start = clock()
    deadline = start + args.seconds
    plain: list[dict] = []
    traced: list[dict] = []
    rep = 0
    while True:
        plain.append(run_worker(args, rep, n_jobs, trace=False))
        if args.trace:
            traced.append(run_worker(args, rep, n_jobs, trace=True))
        rep += 1
        per_rep = (clock() - start) / rep
        if rep >= (1 if args.trace else MIN_REPS) and (
            clock() + per_rep > deadline
        ):
            break

    report: list[str] = []
    errors: list[str] = []
    for res in plain + traced:
        bad = [name for name, ok in res["checks"].items() if not ok]
        if bad:
            errors.append(f"rep {res['rep']}: failed checks {bad}")
        key = f"{args.workload}/seed={args.seed}/rep={res['rep']}/jobs={n_jobs}"
        pinned = pins.get(key)
        if pinned is not None and pinned != res["digest"]:
            errors.append(f"rep {res['rep']}: record digest {res['digest'][:16]} "
                          f"!= pinned {pinned[:16]}")
    for a, b in zip(plain, traced):
        if a["digest"] != b["digest"]:
            errors.append(f"rep {a['rep']}: traced run changed the records")
    attempted = sum(r["jobs"] for r in plain + traced)
    failed = sum(r["bad_jobs"] for r in plain + traced)

    rounds = [x for r in plain for x in r["rounds_ms"]]
    tail = TAIL_PCT[args.workload]
    timings = scaled_timings(
        [r["setup_s"] for r in plain], rounds,
        sum(r["cpu_s"] for r in plain), sum(r["jobs"] for r in plain),
        [r["ref_ms"] for r in plain], tail,
    )
    e2e = {
        **timings["scaled"],
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
    }
    jobs_per_s = sum(r["jobs"] for r in plain) / sum(r["wall_s"] for r in plain)
    first = plain[0]
    report.append(
        f"# {args.workload}: {len(plain)} simulations x {n_jobs} jobs, "
        f"{len(rounds)} working rounds (tail = p{tail:g}, "
        f"{sum(1 for x in rounds if x > timings['raw']['round_tail_ms'])} "
        f"beyond it), {jobs_per_s:.1f} jobs per host second"
    )
    report.append(timings["line"])
    report.append("# rep 0 sim: " + json.dumps(first["sim"]))
    report.append("# rep 0 counters: " + json.dumps(first["counters"]))
    report.append(f"# rep 0 record digest: {first['digest']}")

    per_layer = None
    if args.trace:
        per_layer = {name: statistics.fmean(r["layers"][name] for r in traced)
                     for name in traced[0]["layers"]}
        per_layer.update({f"sim.{k}": v for k, v in first["sim"].items()})
        per_layer.update({
            f"client.{name}": 0.0 for name in (
                "submit_p50_ms", "submit_p99_ms", "place_p50_ms",
                "place_p99_ms", "read_p50_ms", "read_p99_ms",
                "lateness_p99_ms",
            )
        })
        with_trace = scaled_timings(
            [r["setup_s"] for r in traced],
            [x for r in traced for x in r["rounds_ms"]],
            sum(r["cpu_s"] for r in traced), sum(r["jobs"] for r in traced),
            [r["ref_ms"] for r in traced], tail,
        )
        per_layer.update(overheads(timings, with_trace))
        per_layer["trace.unattributed_pct"] = 100.0 * (
            sum(r["unattributed_ms"] for r in traced)
            / sum(r["blocking_ms"] for r in traced)
        )
        report.append(
            f"# traced: {len(traced)} simulations; blocking path = "
            "Simulator.run, unattributed = its time outside every "
            "layer span"
        )
    return {
        "errors": errors, "attempted": attempted, "failed": failed,
        "e2e": e2e, "per_layer": per_layer, "report": report,
    }


def scaled_timings(setups_s, rounds_ms, cpu_s, jobs, refs, tail) -> dict:
    """Set-up, round percentiles and CPU per job, raw and at reference
    speed.

    ``refs`` holds the (cpu ms, wall ms) reference-loop times taken
    around each measured phase (see ``speed.py``); every timing is
    scaled by the loop's CPU time, the wall time is only reported.
    """
    ref_cpu = statistics.fmean(r[0] for r in refs)
    ref_wall = statistics.fmean(r[1] for r in refs)
    k = speed.REFERENCE_MS / ref_cpu
    raw = {
        "setup_s": statistics.median(setups_s),
        "round_p50_ms": percentile(rounds_ms, 50),
        "round_tail_ms": percentile(rounds_ms, tail),
        "cpu_ms_per_job": 1e3 * cpu_s / max(jobs, 1),
    }
    scaled = {name: value * k for name, value in raw.items()}
    line = (
        f"# reference loop {ref_cpu:.2f} ms CPU, {ref_wall:.2f} ms wall "
        f"(reference {speed.REFERENCE_MS:g} ms); as measured: "
        + ", ".join(f"{k} {v:.4f}" for k, v in raw.items())
        + "; rounds " + ", ".join(
            f"p{q:g} {percentile(rounds_ms, q):.4f}"
            for q in (90, 95, 99, 99.5, 99.9)
        )
    )
    return {"raw": raw, "scaled": scaled, "line": line}


def overheads(plain: dict, traced: dict) -> dict:
    """Traced vs untraced values of the same end-to-end metrics."""
    a, b = plain["scaled"], traced["scaled"]
    return {
        "trace.overhead_pct":
            100.0 * (b["cpu_ms_per_job"] / a["cpu_ms_per_job"] - 1),
        "trace.round_p50_overhead_pct":
            100.0 * (b["round_p50_ms"] / a["round_p50_ms"] - 1),
    }


# ----------------------------------------------------------------------
# serve-live: the daemon under an open-loop HTTP load
# ----------------------------------------------------------------------
def proc_cpu_s(pid: int) -> float:
    """utime + stime of a live process, from /proc."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def open_loop_schedule(rng: random.Random, seconds: float) -> list:
    """Seeded Poisson arrivals of the three request streams, merged."""
    ops = []
    for kind, rate in (
        ("submit", workloads.SERVE["submit_rate"]),
        ("state", workloads.SERVE["state_rate"]),
        ("metrics", workloads.SERVE["metrics_rate"]),
    ):
        t = rng.expovariate(rate)
        while t < seconds:
            ops.append((t, kind))
            t += rng.expovariate(rate)
    ops.sort()
    return ops


def request(conn, method: str, path: str, body: bytes | None = None):
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body=body, headers=headers)
    resp = conn.getresponse()
    return resp.status, resp.read()


def run_segment(args, segment: int, load_s: float, trace: bool) -> dict:
    """One fresh daemon: set it up, load it, drain it, stop it, read
    its journal."""
    db = OUT / (
        f"serve-live-seed{args.seed}-seg{segment}"
        f"{'-traced' if trace else ''}.db"
    )
    out_file = db.with_suffix(".json")
    for path in (db, Path(f"{db}-wal"), Path(f"{db}-shm"), out_file):
        path.unlink(missing_ok=True)
    spec = workloads.SERVE
    child = Child([
        sys.executable, str(HERE / "launcher.py"), "--out", str(out_file),
        *(["--trace"] if trace else []), "--",
        "serve", "--machines", str(spec["machines"]),
        "--scheduler", spec["scheduler"], "--port", "0",
        "--store", str(db),
    ])
    try:
        return _drive_segment(args, segment, load_s, child, db, out_file)
    finally:
        child.kill()
        # keep only a traced daemon's collected data and spans
        for path in (db, Path(f"{db}-wal"), Path(f"{db}-shm"),
                     *(() if trace else (out_file,))):
            path.unlink(missing_ok=True)


def daemon_reference(child: Child) -> list[float]:
    """Have the idle daemon time the reference loop (see launcher.py)."""
    child.proc.stdin.write("reference\n")
    child.proc.stdin.flush()
    while True:
        line = child.line()
        if line.startswith("reference "):
            return [float(x) for x in line.split()[1:]]


def _drive_segment(args, segment, load_s, child, db, out_file) -> dict:
    url = None
    while url is None:
        line = child.line()
        if " listening on " in line:
            url = line.rsplit(" ", 1)[1]
    host, port = url.split("//", 1)[1].split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=30)
    status, _ = request(conn, "GET", "/healthz")
    setup_s = clock() - child.spawned
    if status != 200:
        raise BenchError(f"daemon /healthz answered {status}")

    rng = random.Random(workloads.rep_seed(args.seed, segment))
    schedule = open_loop_schedule(rng, load_s)
    n_submit = sum(1 for _, kind in schedule if kind == "submit")
    bodies = iter([
        (doc["id"], json.dumps(doc).encode())
        for doc in workloads.serve_bodies(args.seed, segment, n_submit)
    ])
    submits: list[tuple] = []  # (job id, due, sent, done, status)
    reads: list[tuple] = []  # (kind, due, sent, done, status)
    ref_before = daemon_reference(child)
    cpu0 = proc_cpu_s(child.proc.pid)
    wall0, mono0 = time.time(), clock()
    t0 = mono0 + 0.01
    for offset, kind in schedule:
        due = t0 + offset
        delay = due - clock()
        if delay > 0:
            time.sleep(delay)
        sent = clock()
        if kind == "submit":
            job_id, body = next(bodies)
            status, _ = request(conn, "POST", "/submit", body)
            submits.append((job_id, due, sent, clock(), status))
        else:
            status, _ = request(conn, "GET", f"/{kind}")
            reads.append((kind, due, sent, clock(), status))

    admitted = {s[0] for s in submits if s[4] == 202}
    drain_deadline = clock() + 30.0
    while clock() < drain_deadline:
        status, raw = request(conn, "GET", "/jobs")
        states = json.loads(raw)["jobs"] if status == 200 else {}
        if all(states.get(j) in ("FINISHED", "CANCELLED", "FAILED")
               for j in admitted):
            break
        time.sleep(0.02)
    cpu_s = proc_cpu_s(child.proc.pid) - cpu0
    ref_after = daemon_reference(child)
    conn.close()
    if child.terminate() != 0:
        raise BenchError("daemon exited with an error")
    collected = json.loads(out_file.read_text())

    with sqlite3.connect(db) as journal:
        rows = journal.execute(
            "SELECT job_id, from_state, to_state, wall FROM transitions "
            "ORDER BY seq"
        ).fetchall()
    hops: dict[str, list] = {}
    placed_wall: dict[str, float] = {}
    drop_hop = args.inject == "journal-hop"
    for job_id, frm, to, wall in rows:
        if drop_hop and to == "PLACED":
            drop_hop = False  # the injected fault: lose one PLACED hop
            continue
        hops.setdefault(job_id, []).append((frm, to))
        if to == "PLACED":
            placed_wall[job_id] = wall
    bad_jobs = sorted(j for j in admitted if hops.get(j) != EXPECTED_HOPS)
    return {
        "setup_s": setup_s,
        "cpu_s": cpu_s,
        "ref_ms": [(a + b) / 2 for a, b in zip(ref_before, ref_after)],
        "submits": submits,
        "reads": reads,
        "admitted": admitted,
        "bad_jobs": bad_jobs,
        "placed_mono": {
            j: mono0 + (w - wall0) for j, w in placed_wall.items()
        },
        "collected": collected,
    }


def client_latencies(seg: dict) -> dict:
    ms = 1e3
    submit = [(done - due) * ms for _, due, _, done, _ in seg["submits"]]
    read = [(done - due) * ms for _, due, _, done, _ in seg["reads"]]
    place = [
        (seg["placed_mono"][job] - due) * ms
        for job, due, _, _, _ in seg["submits"]
        if job in seg["placed_mono"]
    ]
    late = [(sent - due) * ms
            for ops in (seg["submits"], seg["reads"])
            for _, due, sent, _, _ in ops]
    return {"submit": submit, "read": read, "place": place, "late": late}


def run_serve(args) -> dict:
    segments = 2 if args.trace else SERVE_SEGMENTS
    # each segment pays about a second of daemon start and stop
    load_s = max(1.0, args.seconds / segments - 1.0)
    plain, traced = [], []
    for seg in range(segments):
        if args.trace and seg == 1:
            # the traced daemon replays segment 0's load exactly
            traced.append(run_segment(args, 0, load_s, trace=True))
        else:
            plain.append(run_segment(args, seg, load_s, trace=False))

    errors: list[str] = []
    attempted = failed = 0
    for seg in plain + traced:
        ops = seg["submits"] + seg["reads"]
        attempted += len(ops)
        failed += sum(1 for op in seg["submits"] if op[4] != 202)
        failed += sum(1 for op in seg["reads"] if op[4] != 200)
        failed += len(seg["bad_jobs"])
        if seg["bad_jobs"]:
            errors.append(
                f"{len(seg['bad_jobs'])} admitted jobs without the full "
                f"SUBMITTED..FINISHED journal path, e.g. {seg['bad_jobs'][0]}"
            )
    if failed and not errors:
        errors.append(f"{failed} requests failed")

    rounds = [x for s in plain for x in s["collected"]["rounds_ms"]]
    jobs = sum(len(s["admitted"]) for s in plain)
    tail = TAIL_PCT["serve-live"]
    timings = scaled_timings(
        [s["setup_s"] for s in plain], rounds,
        sum(s["cpu_s"] for s in plain), jobs,
        [s["ref_ms"] for s in plain], tail,
    )
    e2e = {
        **timings["scaled"],
        "peak_rss_mb": statistics.median(
            s["collected"]["rss_mb"] for s in plain
        ),
    }
    lat = {k: [x for s in plain for x in client_latencies(s)[k]]
           for k in ("submit", "read", "place", "late")}
    report = [
        f"# serve-live: {len(plain)} daemons, {jobs} jobs, "
        f"{len(rounds)} working rounds (tail = p{tail:g}), open loop at "
        f"{workloads.SERVE['submit_rate']:g} submits/s + "
        f"{workloads.SERVE['state_rate']:g} /state + "
        f"{workloads.SERVE['metrics_rate']:g} /metrics reads/s, "
        "one keep-alive connection",
        timings["line"],
    ]
    for k in ("submit", "place", "read"):
        v = lat[k]
        report.append(
            f"# client {k}: p50 {percentile(v, 50):.3f} ms, "
            f"p99 {percentile(v, 99):.3f} ms over {len(v)} (from due time)"
        )
    report.append(
        f"# load generator lateness: p50 {percentile(lat['late'], 50):.3f} ms, "
        f"p99 {percentile(lat['late'], 99):.3f} ms, "
        f"max {max(lat['late'], default=0.0):.3f} ms"
    )
    report.append(
        "# segment 0 counters: "
        + json.dumps(plain[0]["collected"].get("counters", {}))
    )

    per_layer = None
    if args.trace:
        seg, base = traced[0], plain[0]
        collected = seg["collected"]
        per_layer = dict(collected["layers"])
        sim_keys = ("makespan_s", "mean_qos_slowdown", "mean_waiting_s",
                    "slo_violations")
        per_layer.update({f"sim.{k}": 0.0 for k in sim_keys})
        per_layer.update({
            "client.submit_p50_ms": percentile(lat["submit"], 50),
            "client.submit_p99_ms": percentile(lat["submit"], 99),
            "client.place_p50_ms": percentile(lat["place"], 50),
            "client.place_p99_ms": percentile(lat["place"], 99),
            "client.read_p50_ms": percentile(lat["read"], 50),
            "client.read_p99_ms": percentile(lat["read"], 99),
            "client.lateness_p99_ms": percentile(lat["late"], 99),
        })
        inbox = [
            (popped - enq) * 1e3
            for _, enq, popped in collected["jobs"].values()
            if popped is not None
        ]
        per_layer["svc.inbox_wait.p50_ms"] = percentile(inbox, 50)
        per_layer["svc.inbox_wait.p99_ms"] = percentile(inbox, 99)
        per_layer.update(overheads(*(
            scaled_timings(
                [s["setup_s"]], s["collected"]["rounds_ms"], s["cpu_s"],
                len(s["admitted"]), [s["ref_ms"]], tail,
            )
            for s in (base, seg)
        )))
        per_layer["trace.unattributed_pct"] = unattributed_pct(seg)
        report.append(
            "# traced: blocking path = due -> PLACED journal stamp per job; "
            "attributed = generator lateness, POST handler + submit, "
            "inbox wait, loop to PLACED; unattributed = send -> handler "
            "start (socket and HTTP parsing)"
        )
    return {
        "errors": errors, "attempted": attempted, "failed": failed,
        "e2e": e2e, "per_layer": per_layer, "report": report,
    }


def unattributed_pct(seg: dict) -> float:
    """Share of the submit -> PLACED path outside every traced layer.

    Per job the path is due -> sent (generator lateness) -> POST
    handler start (transport and header parsing: no layer span) ->
    inbox -> popped by the loop -> PLACED stamp.
    """
    jobs = seg["collected"]["jobs"]
    total = gap = 0.0
    for job, due, sent, _, _ in seg["submits"]:
        placed = seg["placed_mono"].get(job)
        handler = (jobs.get(job) or [None])[0]
        if placed is None or handler is None:
            continue
        total += placed - due
        gap += handler - sent
    return 100.0 * gap / total if total else 0.0


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--jobs", type=int, default=None,
                   help="jobs per batch simulation (default: the "
                   "workload's size; the self-test uses fewer)")
    p.add_argument("--inject", choices=("digest", "journal-hop"),
                   default=None,
                   help="corrupt one record or drop one journal hop, to "
                   "show the correctness gate fails the run")
    args = p.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))
    pins = json.loads((HERE / "digests.json").read_text())
    try:
        if args.workload == "serve-live":
            res = run_serve(args)
        else:
            res = run_batch(args, pins)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for line in res["report"]:
        print(line)
    for err in res["errors"]:
        print(f"# CHECK FAILED: {err}")
    units = dict(END_TO_END)
    if args.trace:
        units = dict(layers.PER_LAYER)
        values = res["per_layer"]
    else:
        values = res["e2e"]
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name:34s} {values[name]:14.6f} {unit}")
    correct = not res["errors"] and res["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
