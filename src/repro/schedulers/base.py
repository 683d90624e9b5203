"""Scheduler interface and shared queue machinery.

A scheduler owns a waiting queue sorted by arrival time (oldest first,
the paper's starvation-avoidance rule) and is invoked by the simulator
or the prototype loop whenever the cluster state changes (a job arrived
or finished).  Each invocation returns the placements to enforce; jobs
it cannot or will not place stay queued for the next iteration, exactly
like Algorithm 1's ``postponed_list`` re-queueing.
"""

from __future__ import annotations

import abc
import bisect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

from repro.core.placement import PlacementEngine, PlacementSolution
from repro.topology.allocation import AllocationState
from repro.topology.graph import TopologyGraph
from repro.workload.job import Job

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.sim.cluster import ClusterState


@dataclass
class SchedulingContext:
    """Everything a policy may consult when deciding placements."""

    topo: TopologyGraph
    alloc: AllocationState
    engine: PlacementEngine
    #: running ``job_id -> (job, gpus)``; inside the simulation kernel
    #: this is the cluster's live read-only view, so a policy proposes
    #: through a :class:`RoundView` instead of writing to it
    co_runners: Mapping[str, tuple[Job, frozenset[str]]]
    now: float = 0.0
    #: full cluster view (running jobs, rates, health); None when a
    #: caller builds a bare context outside the simulation kernel
    cluster: "ClusterState | None" = None
    #: decision flight recorder (repro.obs.provenance) threaded through
    #: by the simulation kernel when one is attached as an observer;
    #: None — the default — keeps the hot path provenance-free
    recorder: object | None = None
    #: eviction verb bound by the simulation kernel:
    #: ``evict(job_id, reason)`` checkpoints and frees a running job.
    #: Reason ``"preempt"`` re-queues the victim for a later round;
    #: ``"migrate"`` leaves re-placement to the caller, which must
    #: return a solution for the job in the same decision round.  None
    #: outside the kernel — preempting policies degrade to placement-only.
    evict: Callable[[str, str], None] | None = None


class RoundView:
    """The co-runner view one decision round proposes against.

    It starts as the context's own ``co_runners`` and hands that object
    to proposals as it is.  A placement made in the round is held back
    until a later proposal asks for the view: only then is the view
    copied, once per round, with the round's placements added in
    order.  So every proposal sees the same entries as a copy made up
    front, yet a round that proposes nothing, or places only its last
    proposal, copies nothing.
    """

    __slots__ = ("_live", "_copy", "_pending")

    def __init__(self, live: Mapping[str, tuple[Job, frozenset[str]]]) -> None:
        self._live = live
        self._copy: dict[str, tuple[Job, frozenset[str]]] | None = None
        self._pending: list[tuple[str, tuple[Job, frozenset[str]]]] = []

    def current(self) -> Mapping[str, tuple[Job, frozenset[str]]]:
        """The running jobs plus this round's placements, read-only."""
        if self._pending:
            return self.private()
        return self._live if self._copy is None else self._copy

    def private(self) -> dict[str, tuple[Job, frozenset[str]]]:
        """The round's own copy, for probes that pop an entry and put
        it back; later :meth:`current` calls return the same dict."""
        if self._copy is None:
            self._copy = dict(self._live)
        if self._pending:
            self._copy.update(self._pending)
            self._pending.clear()
        return self._copy

    def add(self, job: Job, gpus: frozenset[str]) -> None:
        """Register a placement made in this round."""
        if self._copy is None:
            self._pending.append((job.job_id, (job, gpus)))
        else:
            self._copy[job.job_id] = (job, gpus)


@dataclass(order=True)
class _QueueEntry:
    arrival: float
    job_id: str
    job: Job = field(compare=False)


class Scheduler(abc.ABC):
    """Base class: arrival-ordered waiting queue + policy hook."""

    #: canonical policy name (overridden by subclasses)
    name: str = "abstract"

    def __init__(self) -> None:
        self._queue: list[_QueueEntry] = []
        self.postponements: dict[str, int] = {}
        self._attached_to: object | None = None

    # ------------------------------------------------------------------
    # ownership
    # ------------------------------------------------------------------
    def attach(self, owner: object) -> None:
        """Claim this scheduler for one simulation/prototype run.

        Scheduler instances carry queue and postponement state, so
        reusing one across two runs silently leaks jobs from the first
        run into the second.  The first caller wins; any later caller
        gets a clear error instead of corrupted results.
        """
        if self._attached_to is not None and self._attached_to is not owner:
            raise RuntimeError(
                f"{type(self).__name__} is already attached to another run; "
                "scheduler instances carry queue/postponement state, so "
                "create a fresh scheduler per Simulator"
            )
        self._attached_to = owner

    # ------------------------------------------------------------------
    # queue management
    # ------------------------------------------------------------------
    def submit(self, job: Job) -> None:
        """Add a job to the waiting queue (ordered by arrival time)."""
        if any(e.job_id == job.job_id for e in self._queue):
            raise ValueError(f"job {job.job_id!r} already queued")
        bisect.insort(self._queue, _QueueEntry(job.arrival_time, job.job_id, job))

    def queued_jobs(self) -> list[Job]:
        return [e.job for e in self._queue]

    def queue_length(self) -> int:
        return len(self._queue)

    def _remove(self, job_id: str) -> None:
        self._queue = [e for e in self._queue if e.job_id != job_id]

    def withdraw(self, job_id: str) -> bool:
        """Drop a waiting job from the queue (a cancel, or a job nothing
        can unblock).

        Returns whether the job was queued; postponement bookkeeping is
        cleared so a resubmission under the same id starts fresh.
        """
        before = len(self._queue)
        self._remove(job_id)
        self.postponements.pop(job_id, None)
        return len(self._queue) != before

    def _note_postponed(self, job_id: str) -> None:
        self.postponements[job_id] = self.postponements.get(job_id, 0) + 1

    # ------------------------------------------------------------------
    # policy hook
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def schedule(self, ctx: SchedulingContext) -> list[PlacementSolution]:
        """Decide placements for queued jobs given the current state.

        Implementations open one :meth:`_round_view` per call, propose
        against its :meth:`RoundView.current` view, commit each placed
        job through :meth:`_commit` so that later decisions in the same
        round see its GPUs and its co-runner entry, and return the
        solutions; the caller starts the corresponding executions.
        ``ctx.co_runners`` itself is never written.
        """

    # ------------------------------------------------------------------
    # helpers shared by policies
    # ------------------------------------------------------------------
    def _round_view(self, ctx: SchedulingContext) -> RoundView:
        """The co-runner view of one :meth:`schedule` call."""
        return RoundView(ctx.co_runners)

    def _commit(
        self,
        ctx: SchedulingContext,
        view: RoundView,
        placed: list[PlacementSolution],
        job: Job,
        solution: PlacementSolution,
    ) -> None:
        """Commit a placement: enforce it on ``ctx.alloc``, register it
        as a co-runner of the round's later proposals (the view is
        copied only if one follows), take the job off the queue and add
        the solution to the round's ``placed`` list."""
        ctx.engine.enforce(solution)
        view.add(job, frozenset(solution.gpus))
        self._remove(job.job_id)
        placed.append(solution)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(queue={len(self._queue)})"
