"""Durable sqlite journal for the scheduler service.

Two tables:

* ``jobs`` — one row per accepted submission: the full manifest-format
  job document (JSON, round-trips bit-identically through
  :func:`repro.workload.manifest.job_from_dict`), the submission
  priority, and the job's *current* lifecycle state (denormalised for
  cheap recovery queries);
* ``transitions`` — the append-only lifecycle history: every accepted
  state-machine hop with a wall-clock stamp.

The store is written from HTTP handler threads (submissions) and the
scheduler loop (transitions), so connections run with
``check_same_thread=False`` behind one process-wide write lock; WAL
journaling with ``synchronous=NORMAL`` keeps a single insert cheap
enough for thousands of submissions per second while surviving a
process kill (WAL recovery replays complete transactions; a torn tail
is discarded, never half-applied).

On restart :meth:`ServiceStore.recover` returns every non-terminal
job so the daemon can rebuild its queue exactly where the dead
process left off.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.service.statemachine import JobState
from repro.workload.job import Job
from repro.workload.manifest import job_from_dict, job_to_dict

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id    TEXT PRIMARY KEY,
    manifest  TEXT NOT NULL,
    priority  INTEGER NOT NULL DEFAULT 0,
    state     TEXT NOT NULL,
    submitted_wall REAL NOT NULL,
    updated_wall   REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS transitions (
    seq       INTEGER PRIMARY KEY AUTOINCREMENT,
    job_id    TEXT NOT NULL,
    from_state TEXT,
    to_state  TEXT NOT NULL,
    wall      REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS transitions_by_job ON transitions (job_id, seq);
"""


@dataclass(frozen=True)
class StoredJob:
    """One recovered journal row."""

    job: Job
    priority: int
    state: JobState


class ServiceStore:
    """Submission/transition journal on one sqlite file."""

    def __init__(
        self,
        path: str | Path,
        *,
        clock=time.time,
        observe_write=None,
    ) -> None:
        self.path = str(path)
        self.clock = clock
        #: optional ``callable(latency_s)`` invoked after every journal
        #: write with its wall-clock cost — the daemon points this at
        #: the journal-write-latency histogram so a soak run can watch
        #: for sqlite stalls (lock contention, fsync storms)
        self.observe_write = observe_write
        self._lock = threading.Lock()
        self._db = sqlite3.connect(self.path, check_same_thread=False)
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute("PRAGMA synchronous=NORMAL")
        with self._lock:
            self._db.executescript(_SCHEMA)
            self._db.commit()

    # ------------------------------------------------------------------
    # writes: each is one transaction (``with self._db`` commits, or
    # rolls back on any exception, so a failed write leaves no
    # statement behind for the next commit to pick up)
    # ------------------------------------------------------------------
    def journal_submission(
        self, job: Job, priority: int, state: JobState
    ) -> None:
        """Persist one accepted submission (job row + first transition)."""
        now = self.clock()
        doc = json.dumps(job_to_dict(job), sort_keys=True)
        t0 = time.perf_counter()
        with self._lock, self._db:
            self._db.execute(
                "INSERT INTO jobs (job_id, manifest, priority, state, "
                "submitted_wall, updated_wall) VALUES (?, ?, ?, ?, ?, ?)",
                (job.job_id, doc, priority, state.value, now, now),
            )
            self._db.execute(
                "INSERT INTO transitions (job_id, from_state, to_state, wall) "
                "VALUES (?, NULL, ?, ?)",
                (job.job_id, state.value, now),
            )
        if self.observe_write is not None:
            self.observe_write(time.perf_counter() - t0)

    def journal_transition(
        self, job_id: str, frm: JobState | None, to: JobState
    ) -> None:
        """Append one lifecycle hop and refresh the job's current state."""
        now = self.clock()
        t0 = time.perf_counter()
        with self._lock, self._db:
            self._db.execute(
                "UPDATE jobs SET state = ?, updated_wall = ? WHERE job_id = ?",
                (to.value, now, job_id),
            )
            self._db.execute(
                "INSERT INTO transitions (job_id, from_state, to_state, wall) "
                "VALUES (?, ?, ?, ?)",
                (job_id, None if frm is None else frm.value, to.value, now),
            )
        if self.observe_write is not None:
            self.observe_write(time.perf_counter() - t0)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def load_job(self, job_id: str) -> StoredJob | None:
        with self._lock:
            row = self._db.execute(
                "SELECT manifest, priority, state FROM jobs WHERE job_id = ?",
                (job_id,),
            ).fetchone()
        if row is None:
            return None
        return StoredJob(
            job=job_from_dict(json.loads(row[0])),
            priority=int(row[1]),
            state=JobState(row[2]),
        )

    def all_jobs(self) -> list[StoredJob]:
        """Every journaled job, submission order."""
        with self._lock:
            rows = self._db.execute(
                "SELECT manifest, priority, state FROM jobs "
                "ORDER BY submitted_wall, job_id"
            ).fetchall()
        return [
            StoredJob(
                job=job_from_dict(json.loads(m)),
                priority=int(p),
                state=JobState(s),
            )
            for m, p, s in rows
        ]

    def recover(self) -> list[StoredJob]:
        """Non-terminal jobs, submission order — the restart queue."""
        return [
            s for s in self.all_jobs() if not s.state.terminal
        ]

    def transitions(self, job_id: str | None = None) -> list[tuple]:
        """(job_id, from, to, wall) history rows, append order."""
        query = (
            "SELECT job_id, from_state, to_state, wall FROM transitions"
        )
        args: tuple = ()
        if job_id is not None:
            query += " WHERE job_id = ?"
            args = (job_id,)
        query += " ORDER BY seq"
        with self._lock:
            return self._db.execute(query, args).fetchall()

    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._db.close()

    def __enter__(self) -> "ServiceStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
