"""Admission control and the priority inbox feeding the scheduler loop.

HTTP handler threads never touch the simulation engine directly — one
scheduler-loop thread owns all engine mutation (see
:mod:`repro.service.daemon`).  The :class:`QueueManager` sits between
them: handler threads call :meth:`admit` (pure checks) and
:meth:`push`; the loop thread drains with :meth:`pop_batch`.

Admission rejects, with a stable machine-readable reason:

* ``duplicate``     — a job under that id was already accepted
  (including terminal jobs: ids are forever, resubmit under a new id);
* ``over-capacity`` — the job wants more GPUs than the whole cluster
  has, so no schedule could ever place it;
* ``queue-full``    — the admitted-but-unfinished backlog reached
  ``max_depth`` (backpressure for the replay driver).

Entries drain highest ``priority`` first (ties: submission order).
Priority shapes *feeding* order only — once inside the engine, jobs
obey the paper's arrival-ordered starvation-avoidance queue — which
matters exactly when many submissions share one arrival instant (a
burst) and the operator wants some fed first.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from dataclasses import dataclass

from repro.workload.job import Job


@dataclass(frozen=True)
class AdmissionDecision:
    """The ruling on one submission."""

    admitted: bool
    reason: str  # "admitted" or a rejection reason


@dataclass(frozen=True)
class QueueEntry:
    """One admitted submission waiting for the scheduler loop."""

    job: Job
    priority: int = 0


class QueueManager:
    """Bounded priority inbox with admission checks.

    ``depth`` counts admitted jobs the service has not retired yet
    (the daemon calls :meth:`retire` on terminal transitions), so
    ``max_depth`` bounds *backlog*, not just the unpopped inbox.
    """

    def __init__(self, total_gpus: int, *, max_depth: int = 100_000) -> None:
        self.total_gpus = total_gpus
        self.max_depth = max_depth
        self._heap: list[tuple[int, int, QueueEntry]] = []
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._accepted: set[str] = set()
        self._live = 0  # admitted minus retired

    # ------------------------------------------------------------------
    def admit(self, job: Job) -> AdmissionDecision:
        """Pure admission ruling; does not enqueue."""
        with self._lock:
            return self._admit_locked(job)

    def _admit_locked(self, job: Job) -> AdmissionDecision:
        if job.job_id in self._accepted:
            return AdmissionDecision(False, "duplicate")
        if job.num_gpus > self.total_gpus:
            return AdmissionDecision(False, "over-capacity")
        if self._live >= self.max_depth:
            return AdmissionDecision(False, "queue-full")
        return AdmissionDecision(True, "admitted")

    def push(self, job: Job, priority: int = 0) -> AdmissionDecision:
        """Admit-and-enqueue in one critical section."""
        with self._lock:
            decision = self._admit_locked(job)
            if decision.admitted:
                self._accepted.add(job.job_id)
                self._live += 1
                self._enqueue_locked(job, priority)
        return decision

    def admit_and_reserve(self, job: Job) -> AdmissionDecision:
        """Rule on a submission and claim its id/depth budget — without
        making it visible to :meth:`pop_batch` yet.

        The daemon's submit path reserves first, registers the waiting
        submitter, then calls :meth:`enqueue`: the loop must find the
        submitter of every job it pops, or it would take the job for
        one restored by recovery and never journal it.
        """
        with self._lock:
            decision = self._admit_locked(job)
            if decision.admitted:
                self._accepted.add(job.job_id)
                self._live += 1
        return decision

    def enqueue(self, job: Job, priority: int = 0) -> None:
        """Publish a previously reserved job to the scheduler loop."""
        with self._lock:
            self._enqueue_locked(job, priority)

    def _enqueue_locked(self, job: Job, priority: int) -> None:
        heapq.heappush(
            self._heap,
            (-priority, next(self._seq), QueueEntry(job, priority)),
        )

    def restore(self, job: Job, priority: int = 0) -> None:
        """Re-enqueue a journaled job during restart recovery.

        Bypasses depth/duplicate checks — the job was already admitted
        in a previous life and its id must stay reserved.
        """
        with self._lock:
            self._accepted.add(job.job_id)
            self._live += 1
            self._enqueue_locked(job, priority)

    def reserve(self, job_id: str) -> None:
        """Burn an id without enqueueing or consuming depth budget.

        Restart recovery calls this for journaled *terminal* jobs:
        they need no replay, but resubmitting their id must still rule
        ``duplicate`` (the journal's primary key would reject the row
        anyway — this keeps admission and storage agreeing).
        """
        with self._lock:
            self._accepted.add(job_id)

    def release(self, job_id: str) -> None:
        """Undo :meth:`admit_and_reserve` for a job never enqueued.

        The daemon calls this when the submission could not be
        journaled: the id is free again and the depth budget returned,
        as if the submission had never been admitted.
        """
        with self._lock:
            self._accepted.remove(job_id)
            self._live -= 1

    def pop_batch(self, limit: int | None = None) -> list[QueueEntry]:
        """Drain up to ``limit`` entries, highest priority first."""
        out: list[QueueEntry] = []
        with self._lock:
            while self._heap and (limit is None or len(out) < limit):
                out.append(heapq.heappop(self._heap)[2])
        return out

    def retire(self, job_id: str) -> None:
        """A tracked job reached a terminal state: free backlog budget.

        The id stays reserved (``duplicate`` forever) — only the depth
        accounting is released.
        """
        with self._lock:
            if job_id in self._accepted and self._live > 0:
                self._live -= 1

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Admitted-but-not-terminal jobs (the backpressure quantity)."""
        with self._lock:
            return self._live

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)
