"""Durable sqlite journal for the scheduler service.

Two tables:

* ``jobs`` — one row per accepted submission: the full manifest-format
  job document (JSON, round-trips bit-identically through
  :func:`repro.workload.manifest.job_from_dict`), the submission
  priority, and the job's *current* lifecycle state (denormalised for
  cheap recovery queries);
* ``transitions`` — the append-only lifecycle history: every accepted
  state-machine hop with a wall-clock stamp.

The scheduler loop is the store's only writer.  A loop iteration opens
a *group* (:meth:`ServiceStore.begin`): every submission row and
lifecycle hop it journals joins one sqlite transaction, closed by one
:meth:`ServiceStore.commit` (or undone by :meth:`ServiceStore.rollback`).
Outside a group each write is its own transaction.  No lock is taken:
the connection (``check_same_thread=False``) is used by one thread at a
time — the loop while it runs, anyone once it is idle or stopped; a
read issued during an open group would see its uncommitted rows.  WAL
journaling with ``synchronous=NORMAL`` survives a process kill (WAL
recovery replays complete transactions; a torn tail is discarded,
never half-applied).

On restart :meth:`ServiceStore.recover` returns every non-terminal
job so the daemon can rebuild its queue exactly where the dead
process left off.
"""

from __future__ import annotations

import json
import sqlite3
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
        #: optional ``callable(latency_s)`` invoked once per commit with
        #: the wall time spent in sqlite for it (its statements plus
        #: the COMMIT) — the daemon points this at the journal-write
        #: latency histogram so a soak run can watch for sqlite stalls
        self.observe_write = observe_write
        self._group = False
        self._group_s = 0.0  # sqlite time of the open group's statements
        self._db = sqlite3.connect(self.path, check_same_thread=False)
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute("PRAGMA synchronous=NORMAL")
        self._db.executescript(_SCHEMA)
        self._db.commit()

    # ------------------------------------------------------------------
    # groups: one transaction over many writes
    # ------------------------------------------------------------------
    def begin(self) -> None:
        """Open a group: later writes join one transaction until
        :meth:`commit` or :meth:`rollback`."""
        self._group = True

    def commit(self) -> None:
        """Close the group with one COMMIT (none when nothing was
        written).  Raises the sqlite error when the COMMIT fails; the
        caller must then :meth:`rollback`."""
        self._group = False
        if not self._db.in_transaction:
            return
        t0 = time.perf_counter()
        self._db.commit()
        spent = self._group_s + time.perf_counter() - t0
        self._group_s = 0.0
        if self.observe_write is not None:
            self.observe_write(spent)

    def rollback(self) -> None:
        """Close the group, undoing every write it holds."""
        self._group = False
        self._group_s = 0.0
        self._db.rollback()

    # ------------------------------------------------------------------
    # writes: inside a group they join its transaction; outside, each is
    # one transaction that commits, or rolls back on any exception, so a
    # failed write leaves no statement behind for a later commit
    # ------------------------------------------------------------------
    def journal_submission(
        self, job: Job, priority: int, state: JobState
    ) -> None:
        """Persist one accepted submission (job row + first transition)."""
        now = self.clock()
        doc = json.dumps(job_to_dict(job), sort_keys=True)
        self._write(
            "INSERT INTO jobs (job_id, manifest, priority, state, "
            "submitted_wall, updated_wall) VALUES (?, ?, ?, ?, ?, ?)",
            (job.job_id, doc, priority, state.value, now, now),
            "INSERT INTO transitions (job_id, from_state, to_state, wall) "
            "VALUES (?, NULL, ?, ?)",
            (job.job_id, state.value, now),
        )

    def journal_transition(
        self, job_id: str, frm: JobState | None, to: JobState
    ) -> None:
        """Append one lifecycle hop and refresh the job's current state."""
        now = self.clock()
        self._write(
            "UPDATE jobs SET state = ?, updated_wall = ? WHERE job_id = ?",
            (to.value, now, job_id),
            "INSERT INTO transitions (job_id, from_state, to_state, wall) "
            "VALUES (?, ?, ?, ?)",
            (job_id, None if frm is None else frm.value, to.value, now),
        )

    def _write(self, sql1: str, args1: tuple, sql2: str, args2: tuple) -> None:
        db = self._db
        t0 = time.perf_counter()
        if self._group:
            db.execute(sql1, args1)
            db.execute(sql2, args2)
            self._group_s += time.perf_counter() - t0
            return
        with db:
            db.execute(sql1, args1)
            db.execute(sql2, args2)
        if self.observe_write is not None:
            self.observe_write(time.perf_counter() - t0)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def load_job(self, job_id: str) -> StoredJob | None:
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
        return self._db.execute(query, args).fetchall()

    # ------------------------------------------------------------------
    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "ServiceStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
