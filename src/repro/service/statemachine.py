"""Job lifecycle states and the validated transition table.

Every job the service accepts moves through a small state machine:

.. code-block:: text

    SUBMITTED ──> QUEUED ──> PLACED ──> RUNNING ──> FINISHED
        │            │          │  ^        │
        │            │          │  └────────┤  (failure requeue:
        │            │          │           │   RUNNING/PLACED -> QUEUED)
        └────────────┴──────────┴───────────┴──> CANCELLED / FAILED

``SUBMITTED`` is the journaled-but-not-yet-fed state (the HTTP thread
admitted the job; the scheduler loop has not popped it yet).
``QUEUED`` means the engine's scheduler holds it, ``PLACED`` that a
decision round chose GPUs for it, ``RUNNING`` that execution started
(in the simulation kernel these are one decision round apart, but the
distinction survives into the journal so an operator can see *when*
each hop happened).  A machine failure sends victims back to
``QUEUED``.  ``FINISHED``, ``CANCELLED`` and ``FAILED`` are terminal.

Transitions not in the table raise :class:`TransitionError` — state
bugs surface as loud errors, never as silently skipped journal rows.
"""

from __future__ import annotations

import enum
import threading
from typing import Callable, Iterable


class JobState(str, enum.Enum):
    """Lifecycle states; ``str`` mixin so JSON/sqlite round-trips are
    just the value."""

    SUBMITTED = "SUBMITTED"
    QUEUED = "QUEUED"
    PLACED = "PLACED"
    RUNNING = "RUNNING"
    FINISHED = "FINISHED"
    CANCELLED = "CANCELLED"
    FAILED = "FAILED"

    @property
    def terminal(self) -> bool:
        return self in _TERMINAL


_TERMINAL = frozenset(
    {JobState.FINISHED, JobState.CANCELLED, JobState.FAILED}
)

#: the full legal-transition table (source -> allowed targets)
TRANSITIONS: dict[JobState, frozenset[JobState]] = {
    JobState.SUBMITTED: frozenset(
        {JobState.QUEUED, JobState.CANCELLED, JobState.FAILED}
    ),
    JobState.QUEUED: frozenset(
        {JobState.PLACED, JobState.CANCELLED, JobState.FAILED}
    ),
    JobState.PLACED: frozenset(
        {JobState.RUNNING, JobState.QUEUED, JobState.CANCELLED, JobState.FAILED}
    ),
    JobState.RUNNING: frozenset(
        {JobState.FINISHED, JobState.QUEUED, JobState.CANCELLED, JobState.FAILED}
    ),
    JobState.FINISHED: frozenset(),
    JobState.CANCELLED: frozenset(),
    JobState.FAILED: frozenset(),
}


class TransitionError(RuntimeError):
    """An illegal lifecycle transition was attempted."""

    def __init__(self, job_id: str, frm: JobState, to: JobState) -> None:
        super().__init__(
            f"job {job_id!r}: illegal transition {frm.value} -> {to.value}"
        )
        self.job_id = job_id
        self.frm = frm
        self.to = to


class LifecycleTable:
    """Current state of every job the service knows, with validation.

    Thread-safe: HTTP threads create/read entries while the scheduler
    loop advances them.  An optional ``journal`` callable receives
    ``(job_id, from_state | None, to_state)`` for every accepted
    mutation — the durable store hooks in there, so the journal can
    never record a transition the table rejected.
    """

    def __init__(
        self,
        journal: Callable[[str, JobState | None, JobState], None] | None = None,
    ) -> None:
        self._states: dict[str, JobState] = {}
        #: jobs per state, kept in step with ``_states`` by every
        #: mutation so :meth:`counts` never walks the job history
        self._counts: dict[JobState, int] = dict.fromkeys(JobState, 0)
        self._lock = threading.Lock()
        self._journal = journal

    # ------------------------------------------------------------------
    def create(self, job_id: str, state: JobState = JobState.SUBMITTED) -> None:
        """Register a new job (recovery may restore a later state)."""
        with self._lock:
            if job_id in self._states:
                raise ValueError(f"job {job_id!r} already tracked")
            self._states[job_id] = state
            self._counts[state] += 1
            if self._journal is not None:
                self._journal(job_id, None, state)

    def advance(self, job_id: str, to: JobState) -> JobState:
        """Validated transition; returns the previous state."""
        with self._lock:
            frm = self._states.get(job_id)
            if frm is None:
                raise KeyError(job_id)
            if to not in TRANSITIONS[frm]:
                raise TransitionError(job_id, frm, to)
            self._move(job_id, frm, to)
            if self._journal is not None:
                self._journal(job_id, frm, to)
            return frm

    def advance_if(self, job_id: str, to: JobState) -> bool:
        """Advance when legal from the current state, else no-op.

        The observer bridge uses this for hops that recovery may have
        fast-forwarded past (e.g. an arrival notification for a job
        restored directly into ``QUEUED``).
        """
        with self._lock:
            frm = self._states.get(job_id)
            if frm is None or to not in TRANSITIONS[frm]:
                return False
            self._move(job_id, frm, to)
            if self._journal is not None:
                self._journal(job_id, frm, to)
            return True

    def _move(self, job_id: str, frm: JobState, to: JobState) -> None:
        # caller holds the lock and has validated the hop
        self._states[job_id] = to
        self._counts[frm] -= 1
        self._counts[to] += 1

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def state(self, job_id: str) -> JobState:
        with self._lock:
            return self._states[job_id]

    def __contains__(self, job_id: str) -> bool:
        with self._lock:
            return job_id in self._states

    def jobs_in(self, states: Iterable[JobState]) -> list[str]:
        wanted = set(states)
        with self._lock:
            return sorted(
                j for j, s in self._states.items() if s in wanted
            )

    def counts(self) -> dict[str, int]:
        """Jobs per state (every state present, zeros included).

        O(states): read off the counts every mutation keeps current.
        """
        with self._lock:
            return {s.value: n for s, n in self._counts.items()}

    def states(self) -> dict[str, JobState]:
        """A private copy of the id -> state map, insertion order.

        One C-level ``dict`` copy under the lock, so a caller holding
        the scheduler loop pays O(jobs) at memcpy speed, never a sort;
        ``JobState`` is a ``str``, so the values serialise as the
        state names.
        """
        with self._lock:
            return dict(self._states)

    def table(self) -> tuple[tuple[str, str], ...]:
        """Immutable (job_id, state) rows, sorted by id.

        Copies under the lock and sorts outside it.
        """
        return tuple((j, s.value) for j, s in sorted(self.states().items()))
