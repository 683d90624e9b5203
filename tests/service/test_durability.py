"""The durability contract: one journal transaction per loop iteration,
202 after its commit, publish after its commit, and the two failure
outcomes (a refused group; a fail-stop after the engine moved)."""

import json
import os
import sqlite3
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis.scenarios import scenario1_jobs
from repro.service import SchedulerService, ServiceServer
from repro.service.daemon import JournalError
from repro.service.statemachine import JobState
from repro.service.store import ServiceStore
from repro.topology.builders import cluster
from repro.workload.job import Job, ModelType
from repro.workload.manifest import job_to_dict

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"


def submit_doc(job_id: str, num_gpus: int = 2, **kwargs) -> dict:
    return job_to_dict(Job(job_id, ModelType.ALEXNET, 4, num_gpus, **kwargs))


def journal_paths(path) -> dict[str, list[str]]:
    """Each job's journaled states in hop order, read on a fresh
    connection (so only committed rows)."""
    paths: dict[str, list[str]] = {}
    with ServiceStore(path) as store:
        for job_id, _, to, _ in store.transitions():
            paths.setdefault(job_id, []).append(to)
    return paths


def http(method: str, url: str, body: dict | None = None):
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as resp:
            return resp.status, json.loads(resp.read() or b"{}")
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}")


class FailingCommit:
    """A sqlite connection whose next ``commit`` of a written
    transaction raises; everything else is passed on."""

    def __init__(self, db: sqlite3.Connection) -> None:
        self._db = db

    def commit(self):
        raise sqlite3.OperationalError("disk I/O error (injected)")

    def __getattr__(self, name):
        return getattr(self._db, name)


class TestOneCommitPerStep:
    def test_a_job_costs_two_commits(self, tmp_path):
        """Submission, QUEUED, PLACED and RUNNING share one commit;
        FINISHED takes the second."""
        svc = SchedulerService(
            cluster(2), "TOPO-AWARE", store_path=str(tmp_path / "svc.db")
        )
        with svc:
            for i in range(5):
                svc.submit(submit_doc(f"j{i}"))
                assert svc.drain()
            latency = svc.registry.get(
                "repro_service_journal_write_latency_seconds"
            )
            assert latency.count() == 10
            assert len(svc.store.transitions()) == 25

    def test_a_paused_submission_is_visible_once_acknowledged(
        self, tmp_path
    ):
        svc = SchedulerService(
            cluster(2), "TOPO-AWARE", store_path=str(tmp_path / "svc.db")
        )
        with svc:
            svc.pause()
            result = svc.submit(submit_doc("a"))
            # the 202 is sent after the commit: durable and published
            assert result.state == "SUBMITTED"
            assert svc.lifecycle.state("a") is JobState.SUBMITTED
            assert journal_paths(tmp_path / "svc.db") == {"a": ["SUBMITTED"]}


class TestRefusedGroup:
    """A submission row that fails before the engine saw its group
    refuses the whole group; the loop keeps running."""

    def test_every_member_is_refused_and_released(
        self, tmp_path, fail_nth_execute
    ):
        svc = SchedulerService(
            cluster(2), "TOPO-AWARE", store_path=str(tmp_path / "svc.db")
        )
        with svc:
            svc.pause()
            # hold the loop inside the first iteration's commit so the
            # next three submissions queue up as one group
            gate, entered = threading.Event(), threading.Event()
            commit = svc.store.commit

            def held_commit():
                if not gate.is_set():
                    entered.set()
                    gate.wait(10)
                commit()

            svc.store.commit = held_commit
            outcome: dict[str, str] = {}

            def submit(job_id):
                try:
                    svc.submit(submit_doc(job_id))
                    outcome[job_id] = "accepted"
                except JournalError:
                    outcome[job_id] = "refused"

            threads = [threading.Thread(target=submit, args=("first",))]
            threads[0].start()
            assert entered.wait(10)
            for job_id in ("b", "c", "d"):
                threads.append(threading.Thread(target=submit, args=(job_id,)))
                threads[-1].start()
            deadline = time.monotonic() + 10
            while len(svc.queue) < 3 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert len(svc.queue) == 3
            # the group's third row fails: b's two rows are undone too
            fail_nth_execute(svc.store, 3)
            gate.set()
            for thread in threads:
                thread.join(10)
            assert outcome == {
                "first": "accepted", "b": "refused", "c": "refused",
                "d": "refused",
            }
            assert svc.queue.depth == 1
            assert svc.lifecycle.states() == {"first": JobState.SUBMITTED}
            assert svc.failure is None
            assert journal_paths(tmp_path / "svc.db") == {
                "first": ["SUBMITTED"]
            }
            # ids and budget were freed: the same ids are accepted now
            for job_id in ("b", "c", "d"):
                assert svc.submit(submit_doc(job_id)).decision.admitted
            svc.resume()
            assert svc.drain()
            assert set(svc.lifecycle.counts().items()) >= {("FINISHED", 4)}


class TestFailStop:
    """A hop write or the COMMIT failing after the engine moved stops
    the service: nothing of the iteration is published, every waiting
    and later submission is refused, and the journal holds exactly
    what clients were told."""

    def _fail_transition(self, svc, nth: int) -> None:
        write = svc.store.journal_transition
        calls = [0]

        def failing(job_id, frm, to):
            calls[0] += 1
            if calls[0] == nth:
                raise sqlite3.OperationalError("disk I/O error (injected)")
            write(job_id, frm, to)

        svc.store.journal_transition = failing

    def _submit_all(self, svc, n: int) -> tuple[list[str], list[str]]:
        accepted, refused = [], []
        for i in range(n):
            try:
                svc.submit(submit_doc(f"j{i}"))
                accepted.append(f"j{i}")
            except JournalError:
                refused.append(f"j{i}")
        return accepted, refused

    def _check_nothing_ahead(self, svc, path, accepted) -> None:
        journal = journal_paths(path)
        # every acknowledged job is durable, and nothing else is
        assert sorted(journal) == sorted(accepted)
        # the published table is exactly the journal's last states
        assert {j: s.value for j, s in svc.lifecycle.states().items()} == {
            j: states[-1] for j, states in journal.items()
        }
        # every streamed job record names a journaled state
        for _, kind, line in svc.decision_recorder.entries_after(0):
            if kind == "job":
                record = json.loads(line)
                assert record["state"] in journal[record["job_id"]]

    def test_failed_hop_write_stops_the_service(self, tmp_path):
        path = tmp_path / "svc.db"
        svc = SchedulerService(cluster(4), "TOPO-AWARE", store_path=str(path))
        with svc, ServiceServer(svc) as server:
            self._fail_transition(svc, 7)
            accepted, refused = self._submit_all(svc, 6)
            assert accepted and refused
            assert not svc.drain(timeout_s=5)
            assert "OperationalError" in svc.failure
            code, doc = http("GET", f"{server.url}/healthz")
            assert code == 503
            assert doc["status"] == "failed" and "injected" in doc["reason"]
            code, doc = http("POST", f"{server.url}/submit", submit_doc("late"))
            assert code == 503 and doc["rejected"] == "journal-error"
            self._check_nothing_ahead(svc, path, accepted)
        # a restart recovers from the journal and finishes every
        # acknowledged job
        again = SchedulerService(cluster(4), "TOPO-AWARE", store_path=str(path))
        with again:
            assert again.drain()
            for job_id in accepted:
                assert again.lifecycle.state(job_id) is JobState.FINISHED
            assert all(j not in again.lifecycle for j in refused)

    def test_failed_commit_stops_the_service(self, tmp_path):
        path = tmp_path / "svc.db"
        svc = SchedulerService(cluster(4), "TOPO-AWARE", store_path=str(path))
        with svc:
            assert svc.submit(submit_doc("kept")).decision.admitted
            assert svc.drain()
            svc.store._db = FailingCommit(svc.store._db)
            with pytest.raises(JournalError):
                svc.submit(submit_doc("lost"))
            assert "OperationalError" in svc.failure
            assert "lost" not in svc.lifecycle
            self._check_nothing_ahead(svc, path, ["kept"])

    def test_failed_commit_publishes_no_history(self, tmp_path):
        """``/timeseries`` and ``/cluster`` stay at the last commit,
        like ``/state``: the lost job's GPUs are in no reader's view."""
        svc = SchedulerService(
            cluster(4), "TOPO-AWARE", store_path=str(tmp_path / "svc.db")
        )
        with svc, ServiceServer(svc) as server:
            assert svc.submit(submit_doc("kept")).decision.admitted
            assert svc.drain()
            # open the throttle window, so the lost job's round would
            # publish at once were it not held for the commit
            time.sleep(max(svc._snapshots.next_publish_in(), 0.0))
            svc.store._db = FailingCommit(svc.store._db)
            with pytest.raises(JournalError):
                svc.submit(submit_doc("lost"))
            assert svc.sim.cluster.alloc.busy_count() == 2  # engine moved
            _, state = http("GET", f"{server.url}/state")
            _, history = http("GET", f"{server.url}/timeseries")
            _, heat = http("GET", f"{server.url}/cluster")
        assert state["gpus_busy"] == 0
        newest = history["cluster"]["gpus_busy"]["raw"][-1]
        assert newest[1] == state["gpus_busy"]
        topo = svc.sim.topo
        assert {
            machine: round(doc["occupancy"] * len(topo.gpus(machine=machine)))
            for machine, doc in heat["machines"].items()
        } == {
            machine: len(topo.gpus(machine=machine)) - free
            for machine, free in state["free_gpus_by_machine"].items()
        }

    def test_serve_exits_nonzero(self, tmp_path):
        """``repro serve`` recovers a journaled job, its first hop write
        fails, and the daemon exits 1 with the reason on stderr."""
        path = tmp_path / "svc.db"
        with ServiceStore(path) as store:
            store.journal_submission(
                Job("j0", ModelType.ALEXNET, 4, 2), 0, JobState.SUBMITTED
            )
        script = (
            "import sqlite3, sys\n"
            "from repro.service.store import ServiceStore\n"
            "def fail(self, *args):\n"
            "    raise sqlite3.OperationalError('disk I/O error (injected)')\n"
            "ServiceStore.journal_transition = fail\n"
            "from repro.cli import main\n"
            f"sys.exit(main(['serve', '--machines', '1', '--port', '0', "
            f"'--store', {str(path)!r}]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=30,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 1
        assert "scheduler service failed" in proc.stderr
        assert "injected" in proc.stderr


# ----------------------------------------------------------------------
# invariants at every commit
# ----------------------------------------------------------------------
def test_published_table_replays_the_journal_at_every_commit(tmp_path):
    """After each commit, the published lifecycle table equals a replay
    of the journal and its per-state counts equal a recount — under
    concurrent submitters, cancels and evictions."""
    svc = SchedulerService(
        cluster(3), "TOPO-AWARE", store_path=str(tmp_path / "svc.db")
    )
    violations: list[str] = []
    commits = [0]
    publish = svc.lifecycle.publish

    def checked_publish():
        publish()
        commits[0] += 1
        replay: dict[str, str] = {}
        for job_id, _, to, _ in svc.store.transitions():
            replay[job_id] = to
        table = {j: s.value for j, s in svc.lifecycle.states().items()}
        if table != replay:
            violations.append(f"commit {commits[0]}: {table} != {replay}")
        recount = Counter(table.values())
        counts = svc.lifecycle.counts()
        if counts != {s.value: recount[s.value] for s in JobState}:
            violations.append(f"commit {commits[0]}: counts {counts}")

    svc.lifecycle.publish = checked_publish
    jobs = scenario1_jobs(45, seed=3)
    with svc:
        def submitter(share):
            for job in share:
                svc.submit(job_to_dict(job))

        threads = [
            threading.Thread(target=submitter, args=(jobs[k::3],))
            for k in range(3)
        ]
        for thread in threads:
            thread.start()
        for job in jobs[::7]:
            for verb in (svc.evict, svc.cancel):
                try:
                    verb(job.job_id)
                except (KeyError, ValueError):
                    pass
        for thread in threads:
            thread.join(30)
        assert svc.drain()
    assert not violations, violations[:3]
    assert commits[0] >= 45  # at least one commit per submission group


# ----------------------------------------------------------------------
# crash consistency at every commit point
# ----------------------------------------------------------------------
#: commit-point kind -> the N-th call at which the child dies
CRASH_POINTS = {
    "staged": 9,      # a hop is staged, its row not yet written
    "written": 13,    # rows written, COMMIT not yet issued
    "committed": 11,  # committed, submitters not yet answered
    "acked": 17,      # answered, records and snapshot not yet published
}


@pytest.mark.parametrize("kind", sorted(CRASH_POINTS))
def test_kill_at_commit_point_loses_nothing_observed(tmp_path, kind):
    store = tmp_path / "svc.db"
    observed = tmp_path / "observed.txt"
    proc = subprocess.run(
        [sys.executable, str(HERE / "crashload.py"), str(store),
         str(observed), kind, str(CRASH_POINTS[kind]), "7"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 9, proc.stderr[-2000:]
    journal = journal_paths(store)
    acked, seen = set(), []
    for line in observed.read_text().splitlines():
        what, job_id, *state = line.split()
        if what == "ack":
            acked.add(job_id)
        else:
            seen.append((what, job_id, state[0]))
    assert acked, "the child died before any submission was answered"
    # every 202 is durable
    assert acked <= set(journal)
    # no state a reader saw (/jobs, SSE job records) is ahead of the
    # journal
    for source, job_id, state in seen:
        assert state in journal.get(job_id, ()), (source, job_id, state)
    # and a restart finishes every acknowledged job
    svc = SchedulerService(cluster(2), "TOPO-AWARE", store_path=str(store))
    with svc:
        assert svc.drain()
        for job_id in acked:
            assert svc.lifecycle.state(job_id).terminal
