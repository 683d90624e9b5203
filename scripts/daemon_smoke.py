#!/usr/bin/env python
"""CI smoke check: the scheduler service daemon end to end.

Launches ``repro serve`` as a subprocess against a throwaway sqlite
store, then drives it purely over HTTP the way an external client
would:

* ``POST /submit`` a job -> 202 with ``state: SUBMITTED``;
* poll ``GET /jobs/<id>`` until the job reaches ``FINISHED`` and its
  record carries a placement;
* three identical jobs, each submitted once the one before finished,
  are proposed on a placement-memo hit: the first hit decision's SSE
  ``data:`` line byte-matches its ``--decisions-out`` journal line and
  carries a ``pools`` report equal to the one of the miss before it;
* resubmitting the same id answers 409 ``duplicate``;
* ``POST /submit`` an over-capacity job answers 422;
* ``POST /cancel`` of the finished job answers 409 (terminal wins),
  of an unknown id 404;
* a long job held RUNNING by a queue of filler arrivals is caught
  mid-run and ``POST /evict``-ed -> 202; it re-places and reaches
  ``FINISHED`` with ``preemptions: 1``, the sqlite journal shows the
  ``RUNNING -> QUEUED`` eviction hop, and the SSE-streamed eviction
  record byte-matches the ``--decisions-out`` journal line;
* on one raw keep-alive socket, an unknown-route ``POST`` with a body
  answers 404 and a pipelined ``GET /healthz`` behind it 200; a chunked
  ``POST /submit`` then answers 501 with a JSON body, and ``GET /jobs``
  shows no job admitted from it;
* ``GET /jobs`` lists every id with a terminal state, ``GET /metrics``
  carries the service metric families;
* once the loop is idle, ``/metrics`` and ``/state`` agree: the
  ``repro_gpus_busy`` gauge equals ``gpus_busy`` and the memo-miss
  counter equals ``placement_cache.misses``;
* the ``GET /events`` replay from id 0 opens with the ``run_start``
  record;
* ``GET /decisions`` reports at least one recorded decision,
  ``GET /explain/smoke-1`` shows a ``placed`` verdict plus the
  lifecycle state, and one ``decision`` event is read off the
  ``GET /events`` SSE stream (``Last-Event-ID: 0`` replay);
* group commit: once idle, the journal-write histogram's ``_count``
  (one sample per commit) is below the number of ``transitions`` rows;
* ``SIGTERM`` shuts the daemon down cleanly (exit 0, the stop line on
  stdout), the sqlite journal holds the full lifecycle history, and
  the streamed SSE decision byte-matches the ``--decisions-out``
  journal record with the same ``seq``;
* ``kill -9`` mid-load: a second daemon on the same store takes a
  paused burst of submissions and is killed while they still arrive;
  a third one recovers the store and every job that got a 202 reaches
  a terminal state.

Budget: well under 30 s.

Run:  PYTHONPATH=src python scripts/daemon_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import sqlite3
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from http.client import HTTPConnection

sys.path.insert(0, "src")

from repro.obs import parse_prometheus  # noqa: E402
from repro.obs.export import sample_value  # noqa: E402

LISTEN_RE = re.compile(r"listening on (http://\S+)")

#: identical jobs submitted one after another to force memo hits
HIT_JOBS = 3


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def http(method: str, url: str, body: dict | None = None) -> tuple[int, dict]:
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        url,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=5) as resp:
            return resp.status, json.loads(resp.read() or b"{}")
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}")


def wait_terminal(url: str, job_id: str, timeout_s: float = 15.0) -> dict:
    """Poll ``GET /jobs/<id>`` until the job is terminal; returns the
    last status document seen."""
    doc: dict = {}
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        _, doc = http("GET", url + f"/jobs/{job_id}")
        if doc.get("state") in ("FINISHED", "CANCELLED", "FAILED"):
            break
        time.sleep(0.05)
    return doc


def start_daemon(store: str, *extra: str) -> tuple[subprocess.Popen, str]:
    """Launch ``repro serve`` on ``store``; returns the process and its
    URL once the listen line is out."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--machines", "2", "--port", "0", "--store", store, *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONPATH="src", PYTHONUNBUFFERED="1"),
    )
    deadline = time.time() + 30
    assert proc.stdout is not None
    seen = []
    while time.time() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        seen.append(line)
        match = LISTEN_RE.search(line)
        if match:
            return proc, match.group(1)
    proc.kill()
    fail(f"no listen line in output: {seen!r}")


def read_raw_response(rfile) -> tuple[int, dict]:
    """One HTTP/1.1 response off a raw socket file: its status and its
    body parsed as JSON (``None`` when it is not JSON)."""
    status = int(rfile.readline().split()[1])
    length = 0
    while (line := rfile.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        if name.lower() == "content-length":
            length = int(value)
    try:
        return status, json.loads(rfile.read(length))
    except ValueError:
        return status, None


def check_raw_framing(url: str) -> None:
    """On one keep-alive socket: a 404 POST leaves the stream in sync
    for the request behind it, and a chunked submit is refused whole."""
    parsed = urllib.parse.urlsplit(url)
    with socket.create_connection((parsed.hostname, parsed.port), timeout=5) as sock:
        rfile = sock.makefile("rb")
        body = b'{"GET /x": 1}'
        sock.sendall(b"POST /nope HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
                     b"GET /healthz HTTP/1.1\r\n\r\n" % (len(body), body))
        codes = [read_raw_response(rfile)[0], read_raw_response(rfile)[0]]
        if codes != [404, 200]:
            fail(f"404 POST then GET /healthz on one socket answered {codes}")
        chunk = b'{"id": "smoke-chunked", "model": "alexnet", "num_gpus": 1}'
        sock.sendall(b"POST /submit HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                     b"%x\r\n%s\r\n0\r\n\r\n" % (len(chunk), chunk))
        status, doc = read_raw_response(rfile)
        if status != 501 or not isinstance(doc, dict) or "error" not in doc:
            fail(f"chunked /submit answered {status}: {doc}")
        rfile.close()
    jobs = http("GET", url + "/jobs")[1].get("jobs", {})
    if "smoke-chunked" in jobs:
        fail(f"chunked /submit admitted a job: {jobs['smoke-chunked']}")


def check_group_commit(url: str, store: str) -> tuple[int, int]:
    """Once idle, the journal took fewer commits than it holds
    transition rows: one commit covers a whole loop iteration."""
    with urllib.request.urlopen(url + "/metrics", timeout=5) as resp:
        families = parse_prometheus(resp.read().decode())
    try:
        commits = sample_value(
            families, "repro_service_journal_write_latency_seconds",
            series="repro_service_journal_write_latency_seconds_count",
        )
    except KeyError as exc:
        fail(f"/metrics lacks the journal-write histogram: {exc}")
    db = sqlite3.connect(store)
    rows = db.execute("SELECT COUNT(*) FROM transitions").fetchone()[0]
    db.close()
    if not 0 < commits < rows:
        fail(f"{commits:g} journal commits for {rows} transition rows: "
             "no group commit")
    return int(commits), rows


def check_kill_and_recover(store: str) -> int:
    """``kill -9`` a daemon while a paused burst still arrives, restart
    on the same store, and require every acknowledged job to finish."""
    proc, url = start_daemon(store)
    acked: list[str] = []
    try:
        http("POST", url + "/pause")

        def load() -> None:
            for i in range(400):
                doc = {"id": f"kill-{i}", "model": "alexnet",
                       "batch_size": 4, "num_gpus": 2}
                try:
                    status, _ = http("POST", url + "/submit", doc)
                except OSError:
                    return  # the daemon is gone
                if status == 202:
                    acked.append(doc["id"])

        loader = threading.Thread(target=load, daemon=True)
        loader.start()
        deadline = time.time() + 15
        while len(acked) < 50 and loader.is_alive() and time.time() < deadline:
            time.sleep(0.01)
        proc.kill()  # SIGKILL: no shutdown path runs
        proc.wait(timeout=10)
        loader.join(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
    if len(acked) < 50 or len(acked) >= 400:
        fail(f"kill did not land mid-load ({len(acked)} of 400 acked)")
    proc, url = start_daemon(store)
    try:
        deadline = time.time() + 15
        while True:
            states = http("GET", url + "/jobs")[1].get("jobs", {})
            if time.time() > deadline or all(
                states.get(j) == "FINISHED" for j in acked
            ):
                break
            time.sleep(0.05)
        missing = [j for j in acked if states.get(j) != "FINISHED"]
        if missing:
            fail(f"{len(missing)} acknowledged jobs lost or unfinished "
                 f"after kill -9 and restart, e.g. {missing[:3]}")
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=30)
        if proc.returncode != 0:
            fail(f"restarted serve exited {proc.returncode}: {err[-500:]}")
    finally:
        if proc.poll() is None:
            proc.kill()
    return len(acked)


def check_metrics_match_state(url: str, timeout_s: float = 5.0) -> None:
    """Wait for the loop to go idle, then require ``/metrics`` and
    ``/state`` to read the same busy GPUs and memo misses (retried
    briefly: the idle flag is set just before the final publish)."""
    deadline = time.time() + timeout_s
    seen = None
    while time.time() < deadline:
        if http("GET", url + "/jobs")[1].get("idle"):
            _, state = http("GET", url + "/state")
            with urllib.request.urlopen(url + "/metrics", timeout=5) as resp:
                families = parse_prometheus(resp.read().decode())
            labels = {"scheduler": state["scheduler"]}
            try:
                seen = (
                    sample_value(families, "repro_gpus_busy", labels=labels),
                    state["gpus_busy"],
                    sample_value(
                        families, "repro_placement_cache_misses_total",
                        labels=labels,
                    ),
                    state["placement_cache"]["misses"],
                )
            except KeyError as exc:
                fail(f"/metrics lacks a sample: {exc}")
            if seen[0] == seen[1] and seen[2] == seen[3]:
                return
        time.sleep(0.05)
    fail(
        "/metrics and /state disagree once idle "
        f"(gpus_busy, state gpus_busy, memo misses, state misses): {seen}"
    )


def read_sse_frames(url: str, timeout_s: float, wanted: dict) -> dict:
    """Stream ``/events`` from seq 0 until one frame per ``wanted``
    entry has been seen; returns ``{name: (seq, data_line)}``.

    ``wanted`` maps a name to a ``(event_kind, data_substring)``
    predicate — e.g. the first decision frame, or the first job frame
    recording a preemption.
    """
    parsed = urllib.parse.urlsplit(url)
    conn = HTTPConnection(parsed.hostname, parsed.port, timeout=timeout_s)
    found: dict = {}
    try:
        conn.request("GET", "/events", headers={"Last-Event-ID": "0"})
        resp = conn.getresponse()
        if resp.status != 200:
            fail(f"/events answered {resp.status}")
        frame: dict = {}
        deadline = time.time() + timeout_s
        while time.time() < deadline and len(found) < len(wanted):
            line = resp.readline().decode("utf-8").rstrip("\n")
            if line.startswith(":"):
                continue  # keep-alive comment
            if line:
                key, _, value = line.partition(": ")
                frame[key] = value
                continue
            for name, (kind, substring) in wanted.items():
                if (name not in found and frame.get("event") == kind
                        and substring in frame.get("data", "")):
                    found[name] = (int(frame["id"]), frame["data"])
            frame = {}
        missing = sorted(set(wanted) - set(found))
        if missing:
            fail(f"SSE stream never produced {missing}")
        return found
    finally:
        conn.close()


def main() -> None:
    tmpdir = tempfile.mkdtemp(prefix="repro-daemon-")
    store = os.path.join(tmpdir, "svc.db")
    decisions_path = os.path.join(tmpdir, "decisions.jsonl")
    proc, url = start_daemon(store, "--decisions-out", decisions_path)
    try:
        # -- submit ----------------------------------------------------
        job = {"id": "smoke-1", "model": "alexnet", "batch_size": 4,
               "num_gpus": 2}
        status, doc = http("POST", url + "/submit", job)
        if status != 202 or doc.get("state") != "SUBMITTED":
            fail(f"/submit answered {status}: {doc}")

        # -- poll to terminal ------------------------------------------
        doc = wait_terminal(url, "smoke-1")
        state = doc.get("state")
        if state != "FINISHED":
            fail(f"job never finished (last state {state!r})")
        record = doc.get("record") or {}
        if len(record.get("gpus", [])) != 2:
            fail(f"finished record lacks a placement: {record}")

        # -- the record stream opens with the run envelope -------------
        # (seq 1 is the first record the daemon ever wrote)
        start_seq, start_line = read_sse_frames(url, 5.0, {
            "run_start": ("run_start", '"jobs": 0'),
        })["run_start"]
        if start_seq != 1:
            fail(f"/events replay does not open with run_start: {start_line}")

        # -- placement-memo hits ---------------------------------------
        # identical jobs, each finishing before the next, meet the
        # empty cluster smoke-1 met: their proposals replay its memo
        # entry, pool report included
        for i in range(HIT_JOBS):
            twin = dict(job, id=f"smoke-hit-{i}")
            status, doc = http("POST", url + "/submit", twin)
            if status != 202:
                fail(f"/submit of {twin['id']} answered {status}: {doc}")
            if wait_terminal(url, twin["id"]).get("state") != "FINISHED":
                fail(f"{twin['id']} never finished")

        # -- rejection codes -------------------------------------------
        status, doc = http("POST", url + "/submit", job)
        if status != 409 or doc.get("rejected") != "duplicate":
            fail(f"duplicate submit answered {status}: {doc}")
        wide = dict(job, id="smoke-wide", num_gpus=999)
        status, doc = http("POST", url + "/submit", wide)
        if status != 422 or doc.get("rejected") != "over-capacity":
            fail(f"over-capacity submit answered {status}: {doc}")

        # -- cancel semantics ------------------------------------------
        status, doc = http("POST", url + "/cancel", {"id": "smoke-1"})
        if status != 409:
            fail(f"cancel of a finished job answered {status}: {doc}")
        status, doc = http("POST", url + "/cancel", {"id": "ghost"})
        if status != 404:
            fail(f"cancel of an unknown job answered {status}: {doc}")

        # -- malformed framing on a raw socket ---------------------------
        check_raw_framing(url)

        # -- listings and metrics --------------------------------------
        status, doc = http("GET", url + "/jobs")
        if status != 200 or doc.get("jobs", {}).get("smoke-1") != "FINISHED":
            fail(f"/jobs table wrong: {doc}")
        with urllib.request.urlopen(url + "/metrics", timeout=5) as resp:
            metrics = resp.read().decode()
        for family in ("repro_service_submissions_total",
                       "repro_service_jobs"):
            if family not in metrics:
                fail(f"/metrics missing family {family}")
        check_metrics_match_state(url)
        commits, rows = check_group_commit(url, store)

        # -- decision provenance over HTTP -----------------------------
        status, doc = http("GET", url + "/decisions")
        if status != 200 or not doc.get("enabled"):
            fail(f"/decisions answered {status}: {doc}")
        if doc.get("recorded", 0) < 1:
            fail(f"/decisions recorded nothing: {doc}")
        status, doc = http("GET", url + "/explain/smoke-1")
        if status != 200 or doc.get("count", 0) < 1:
            fail(f"/explain/smoke-1 answered {status}: {doc}")
        verdicts = [d.get("verdict") for d in doc.get("decisions", [])]
        if "placed" not in verdicts:
            fail(f"/explain/smoke-1 shows no placed verdict: {verdicts}")
        if doc.get("state") != "FINISHED":
            fail(f"/explain/smoke-1 lacks lifecycle state: {doc}")

        # -- eviction over HTTP ----------------------------------------
        # a long job plus a queue of short arrivals: the fillers keep
        # the loop busy for many event batches, so the long job stays
        # observably RUNNING long enough to be caught and evicted
        http("POST", url + "/pause")
        long_job = {"id": "smoke-evict", "model": "alexnet",
                    "batch_size": 4, "num_gpus": 2,
                    "iterations": 5_000_000}
        status, doc = http("POST", url + "/submit", long_job)
        if status != 202:
            fail(f"/submit of the evict target answered {status}: {doc}")
        for i in range(150):
            filler = {"id": f"smoke-filler-{i}", "model": "alexnet",
                      "batch_size": 1, "num_gpus": 1, "iterations": 10,
                      "arrival_time": float(i)}
            status, doc = http("POST", url + "/submit", filler)
            if status != 202:
                fail(f"/submit of filler {i} answered {status}: {doc}")
        http("POST", url + "/resume")
        state = None
        poll_deadline = time.time() + 15
        while time.time() < poll_deadline:
            status, doc = http("GET", url + "/jobs/smoke-evict")
            state = doc.get("state")
            if state in ("RUNNING", "FINISHED", "CANCELLED", "FAILED"):
                break
        if state != "RUNNING":
            fail(f"evict target never seen RUNNING (last {state!r})")
        status, doc = http("POST", url + "/evict", {"id": "smoke-evict"})
        if status != 202:
            fail(f"/evict answered {status}: {doc}")
        # the evicted job must re-place and still run to completion
        doc = wait_terminal(url, "smoke-evict")
        state = doc.get("state")
        if state != "FINISHED":
            fail(f"evicted job never finished (last state {state!r})")
        record = doc.get("record") or {}
        if record.get("preemptions") != 1:
            fail(f"evicted record lacks the preemption: {record}")
        with urllib.request.urlopen(url + "/metrics", timeout=5) as resp:
            metrics = resp.read().decode()
        if "repro_service_evictions_total 1" not in metrics:
            fail("/metrics lacks repro_service_evictions_total 1")

        streamed = read_sse_frames(url, 10.0, {
            "decision": ("decision", '"verdict"'),
            "hit": ("decision", '"hit": true'),
            "eviction": ("job", '"evict_reason": "preempt"'),
        })
        streamed_seq, streamed_line = streamed["decision"]
        hit_seq, hit_line = streamed["hit"]
        eviction_seq, eviction_line = streamed["eviction"]
        if '"smoke-evict"' not in eviction_line:
            fail(f"streamed eviction names the wrong job: {eviction_line}")

        # -- clean SIGTERM shutdown ------------------------------------
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=30)
        if proc.returncode != 0:
            fail(f"serve exited {proc.returncode}: {err[-500:]}")
        if "scheduler service stopped" not in out:
            fail(f"no stop line in output: {out[-300:]!r}")

        # -- the journal survived --------------------------------------
        db = sqlite3.connect(store)
        hops = db.execute(
            "SELECT from_state, to_state FROM transitions "
            "WHERE job_id = 'smoke-1' ORDER BY seq"
        ).fetchall()
        db.close()
        expected = [(None, "SUBMITTED"), ("SUBMITTED", "QUEUED"),
                    ("QUEUED", "PLACED"), ("PLACED", "RUNNING"),
                    ("RUNNING", "FINISHED")]
        if hops != expected:
            fail(f"journal history wrong: {hops}")
        db = sqlite3.connect(store)
        evict_hops = db.execute(
            "SELECT from_state, to_state FROM transitions "
            "WHERE job_id = 'smoke-evict' ORDER BY seq"
        ).fetchall()
        db.close()
        if ("RUNNING", "QUEUED") not in evict_hops:
            fail(f"no RUNNING -> QUEUED eviction hop: {evict_hops}")
        if evict_hops[-1] != ("RUNNING", "FINISHED"):
            fail(f"evicted job's journal does not end FINISHED: {evict_hops}")

        # -- SSE payload byte-matches the decisions journal ------------
        with open(decisions_path) as fp:
            by_seq = {
                json.loads(line)["seq"]: line.rstrip("\n")
                for line in fp
                if line.strip()
            }
        if not by_seq:
            fail(f"{decisions_path} is empty after shutdown")
        if by_seq.get(streamed_seq) != streamed_line:
            fail(
                f"SSE decision seq {streamed_seq} does not byte-match "
                f"the journal: {streamed_line!r} vs "
                f"{by_seq.get(streamed_seq)!r}"
            )
        if by_seq.get(eviction_seq) != eviction_line:
            fail(
                f"SSE eviction seq {eviction_seq} does not byte-match "
                f"the journal: {eviction_line!r} vs "
                f"{by_seq.get(eviction_seq)!r}"
            )
        if by_seq.get(hit_seq) != hit_line:
            fail(
                f"SSE memo-hit decision seq {hit_seq} does not byte-match "
                f"the journal: {hit_line!r} vs {by_seq.get(hit_seq)!r}"
            )
        hit = json.loads(hit_line)
        if not hit["job_id"].startswith("smoke-hit-"):
            fail(f"first memo hit is not a twin job's: {hit_line}")
        if not hit.get("pools"):
            fail(f"memo-hit decision carries no pool report: {hit_line}")
        misses = [
            record for seq, record in sorted(
                (seq, json.loads(line)) for seq, line in by_seq.items()
            )
            if seq < hit_seq and record["kind"] == "decision"
            and not (record.get("memo") or {}).get("hit")
        ]
        if not misses or misses[-1]["pools"] != hit["pools"]:
            fail(
                f"memo-hit pool report {hit['pools']} differs from the "
                f"miss before it: {misses[-1:]}"
            )
    finally:
        if proc.poll() is None:
            proc.kill()
    survived = check_kill_and_recover(store)

    print(
        "daemon smoke OK: submit -> FINISHED over HTTP, rejection codes "
        "409/422, cancel codes 409/404, raw-socket 404 + pipelined GET "
        "and chunked submit refused with 501, /metrics agrees with /state, "
        "/events opens with run_start, /decisions + /explain live, "
        "memo-hit decision streams its miss's pool report, "
        "evict -> RUNNING->QUEUED->FINISHED with the SSE eviction "
        "byte-matching the journal, SSE decision byte-matches the "
        f"journal, clean SIGTERM, journal holds {len(expected)} "
        f"lifecycle hops, {commits} commits for {rows} transition rows, "
        f"{survived} acknowledged jobs finished after kill -9 and restart"
    )


if __name__ == "__main__":
    main()
