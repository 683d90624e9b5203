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
from typing import Callable


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

    One writer (the scheduler loop), any number of readers.  An
    optional ``journal`` callable receives ``(job_id, from_state |
    None, to_state)`` for every accepted mutation *before* the table
    moves — the durable store hooks in there, so the journal can never
    record a transition the table rejected, and a journal write that
    raises leaves the table untouched.  ``on_terminal`` (optional) is
    called with a job id once that job's terminal state is published.

    Between :meth:`stage` and :meth:`publish` the writer's moves are
    *staged*: legality checks (and :meth:`current`) see them, readers
    do not, until ``publish`` applies them all at once — the daemon
    stages one loop iteration and publishes it after its journal
    commit, so no reader ever sees a state the journal lacks.
    :meth:`discard` drops a staged iteration whose commit failed.
    Outside a stage every move is published at once.  The lock guards
    the published maps only; the journal is never called under it.
    """

    def __init__(
        self,
        journal: Callable[[str, JobState | None, JobState], None] | None = None,
        on_terminal: Callable[[str], None] | None = None,
    ) -> None:
        self._states: dict[str, JobState] = {}
        #: jobs per state, kept in step with ``_states`` by every
        #: mutation so :meth:`counts` never walks the job history
        self._counts: dict[JobState, int] = dict.fromkeys(JobState, 0)
        #: the writer's unpublished moves (job -> latest state), or
        #: None outside a stage
        self._staged: dict[str, JobState] | None = None
        self._lock = threading.Lock()
        self._journal = journal
        self._on_terminal = on_terminal

    # ------------------------------------------------------------------
    # the write side (one writer thread)
    # ------------------------------------------------------------------
    def current(self, job_id: str) -> JobState | None:
        """The writer's view: a staged state if any, else the published
        one (None for an unknown id)."""
        staged = self._staged
        if staged is not None and job_id in staged:
            return staged[job_id]
        return self._states.get(job_id)

    def create(self, job_id: str, state: JobState = JobState.SUBMITTED) -> None:
        """Register a new job (recovery may restore a later state)."""
        if self.current(job_id) is not None:
            raise ValueError(f"job {job_id!r} already tracked")
        if self._journal is not None:
            self._journal(job_id, None, state)
        self._set(job_id, state)

    def advance(self, job_id: str, to: JobState) -> JobState:
        """Validated transition; returns the previous state."""
        frm = self.current(job_id)
        if frm is None:
            raise KeyError(job_id)
        if to not in TRANSITIONS[frm]:
            raise TransitionError(job_id, frm, to)
        if self._journal is not None:
            self._journal(job_id, frm, to)
        self._set(job_id, to)
        return frm

    def advance_if(self, job_id: str, to: JobState) -> bool:
        """Advance when legal from the current state, else no-op.

        The observer bridge uses this for hops that recovery may have
        fast-forwarded past (e.g. an arrival notification for a job
        restored directly into ``QUEUED``).
        """
        frm = self.current(job_id)
        if frm is None or to not in TRANSITIONS[frm]:
            return False
        if self._journal is not None:
            self._journal(job_id, frm, to)
        self._set(job_id, to)
        return True

    def _set(self, job_id: str, to: JobState) -> None:
        if self._staged is not None:
            self._staged[job_id] = to
        else:
            self._apply({job_id: to})

    def stage(self) -> None:
        """Start staging: moves stay invisible until :meth:`publish`."""
        self._staged = {}

    def publish(self) -> None:
        """Apply every staged move at once and stop staging."""
        staged, self._staged = self._staged, None
        if staged:
            self._apply(staged)

    def discard(self) -> None:
        """Drop every staged move and stop staging."""
        self._staged = None

    def _apply(self, moves: dict[str, JobState]) -> None:
        states, counts = self._states, self._counts
        with self._lock:
            for job_id, to in moves.items():
                frm = states.get(job_id)
                if frm is not None:
                    counts[frm] -= 1
                states[job_id] = to
                counts[to] += 1
        if self._on_terminal is not None:
            for job_id, to in moves.items():
                if to in _TERMINAL:
                    self._on_terminal(job_id)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def state(self, job_id: str) -> JobState:
        """The published state (KeyError for an unknown id)."""
        with self._lock:
            return self._states[job_id]

    def __contains__(self, job_id: str) -> bool:
        with self._lock:
            return job_id in self._states

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
