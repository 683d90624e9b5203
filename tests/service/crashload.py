"""Child process of the crash-point tests (``test_durability.py``).

Runs an in-process daemon under a seeded load and dies by
``os._exit(9)`` at the N-th commit point of one kind:

* ``staged``    — ``ServiceStore.journal_transition``: a hop is staged,
  its row not yet written;
* ``written``   — ``ServiceStore.commit``: the iteration's rows are
  written, the COMMIT not yet issued;
* ``committed`` — ``LifecycleTable.publish``: committed, no submitter
  answered yet;
* ``acked``     — ``DecisionRecorder.publish``: submitters answered,
  records and snapshot not yet published.

Three client threads write what they saw to ``OBSERVED``, one line
per fact, unbuffered so a kill loses at most the fact in flight:
``ack <id>`` for every 202, ``jobs <id> <state>`` for every state
``GET /jobs`` showed, ``event <id> <state>`` for every SSE job record.

Usage: ``crashload.py STORE OBSERVED KIND N SEED``
"""

from __future__ import annotations

import json
import os
import sys
import threading
from http.client import HTTPConnection

from repro.analysis.scenarios import scenario1_jobs
from repro.obs.provenance import DecisionRecorder
from repro.service import SchedulerService, ServiceServer
from repro.service.statemachine import LifecycleTable
from repro.service.store import ServiceStore
from repro.topology.builders import cluster
from repro.workload.manifest import job_to_dict

POINTS = {
    "staged": (ServiceStore, "journal_transition"),
    "written": (ServiceStore, "commit"),
    "committed": (LifecycleTable, "publish"),
    "acked": (DecisionRecorder, "publish"),
}


def die_at(kind: str, nth: int) -> None:
    owner, name = POINTS[kind]
    original = getattr(owner, name)
    calls = [0]

    def point(self, *args, **kwargs):
        calls[0] += 1
        if calls[0] == nth:
            os._exit(9)
        return original(self, *args, **kwargs)

    setattr(owner, name, point)


def main(store: str, observed: str, kind: str, nth: int, seed: int) -> None:
    fd = os.open(observed, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def note(*fields) -> None:
        os.write(fd, (" ".join(fields) + "\n").encode())

    die_at(kind, nth)
    svc = SchedulerService(cluster(2), "TOPO-AWARE", store_path=store)
    svc.start()
    server = ServiceServer(svc).start()
    host, port = server.host, server.port

    def submitter() -> None:
        conn = HTTPConnection(host, port, timeout=10)
        for job in scenario1_jobs(40, seed=seed):
            body = json.dumps(job_to_dict(job))
            conn.request("POST", "/submit", body,
                         {"Content-Type": "application/json"})
            resp = conn.getresponse()
            resp.read()
            if resp.status == 202:
                note("ack", job.job_id)

    def poller() -> None:
        conn = HTTPConnection(host, port, timeout=10)
        seen: dict[str, str] = {}
        while True:
            conn.request("GET", "/jobs")
            jobs = json.loads(conn.getresponse().read())["jobs"]
            for job_id, state in jobs.items():
                if seen.get(job_id) != state:
                    seen[job_id] = state
                    note("jobs", job_id, state)

    def streamer() -> None:
        conn = HTTPConnection(host, port, timeout=10)
        conn.request("GET", "/events", headers={"Last-Event-ID": "0"})
        resp = conn.getresponse()
        for raw in resp:
            line = raw.decode().rstrip("\n")
            if line.startswith("data: "):
                record = json.loads(line[len("data: "):])
                if record["kind"] == "job":
                    note("event", record["job_id"], record["state"])

    for target in (poller, streamer):
        threading.Thread(target=target, daemon=True).start()
    load = threading.Thread(target=submitter)
    load.start()
    load.join()
    svc.drain()
    os._exit(0)  # the kill point was never reached


if __name__ == "__main__":
    store, observed, kind, nth, seed = sys.argv[1:]
    main(store, observed, kind, int(nth), int(seed))
