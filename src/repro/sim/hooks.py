"""Pluggable observer hooks for the simulation kernel.

The engine emits a small set of lifecycle notifications; everything
that used to be engine-internal record keeping is now an observer:

* :class:`RecordKeeper` builds the per-job :class:`JobRecord` list.
* :class:`DecisionAccounting` accumulates scheduler decision time.
* :class:`repro.analysis.gantt.GanttObserver` collects occupancy
  intervals for the Figure 8 panels.
* :class:`repro.sim.metrics.UtilizationObserver` tracks live GPU
  utilization.

Custom observers implement any subset of the :class:`SimObserver`
protocol (subclass :class:`BaseObserver` for no-op defaults) and are
attached via ``Simulator(..., observers=[...])`` or
:func:`repro.sim.runner.run_with_observers`.  Hooks must not mutate
cluster or scheduler state; they are taps on the event stream.

An observer that also defines ``bind_simulation(sim)`` is handed the
:class:`~repro.sim.engine.Simulator` by ``Simulator.start``, before the
first event, whoever drives the loop (batch run, comparison, service
daemon).  Such a tap reads cluster facts (busy GPUs, running jobs,
engine counters) from ``sim.cluster`` at the round boundary instead of
rebuilding them from hook arguments.
"""

from __future__ import annotations

from typing import Iterable, Protocol, Sequence, runtime_checkable

from repro.core.placement import PlacementSolution
from repro.sim.records import JobRecord
from repro.workload.job import Job


@runtime_checkable
class SimObserver(Protocol):
    """Lifecycle notifications emitted by the simulation engine."""

    def on_arrival(self, t: float, job: Job) -> None:
        """A job arrived and was submitted to the scheduler queue."""

    def on_place(
        self,
        t: float,
        job: Job,
        solution: PlacementSolution,
        solo_exec_time: float,
        postponements: int,
    ) -> None:
        """A job started executing under ``solution`` at time ``t``."""

    def on_finish(self, t: float, job: Job, gpus: frozenset[str]) -> None:
        """A running job completed and released ``gpus``."""

    def on_failure(self, t: float, machine: str, victims: Sequence[Job]) -> None:
        """A machine fail-stopped, killing ``victims`` (may be empty)."""

    def on_requeue(self, t: float, job: Job) -> None:
        """A failure victim was resubmitted to the scheduler queue."""

    def on_evict(
        self, t: float, job: Job, gpus: frozenset[str], reason: str
    ) -> None:
        """A job was removed from the cluster before finishing.

        ``reason`` is ``"cancel"`` (operator cancellation, terminal),
        ``"preempt"`` (evicted for a higher-priority job, back to the
        queue with progress checkpointed) or ``"migrate"`` (evicted by
        the defragmenter, immediately re-placed elsewhere).  ``gpus``
        is empty when the job was not running.
        """

    def on_decision_round(
        self,
        t: float,
        placed: Sequence[PlacementSolution],
        queued: int,
        elapsed_s: float,
    ) -> None:
        """The scheduler ran once: ``placed`` solutions in ``elapsed_s``
        wall-clock seconds, leaving ``queued`` jobs waiting."""


class BaseObserver:
    """No-op :class:`SimObserver`; subclass and override what you need."""

    def on_arrival(self, t: float, job: Job) -> None:
        pass

    def on_place(
        self,
        t: float,
        job: Job,
        solution: PlacementSolution,
        solo_exec_time: float,
        postponements: int,
    ) -> None:
        pass

    def on_finish(self, t: float, job: Job, gpus: frozenset[str]) -> None:
        pass

    def on_failure(self, t: float, machine: str, victims: Sequence[Job]) -> None:
        pass

    def on_requeue(self, t: float, job: Job) -> None:
        pass

    def on_evict(
        self, t: float, job: Job, gpus: frozenset[str], reason: str
    ) -> None:
        pass

    def on_decision_round(
        self,
        t: float,
        placed: Sequence[PlacementSolution],
        queued: int,
        elapsed_s: float,
    ) -> None:
        pass


class CompositeObserver(BaseObserver):
    """Fan every notification out to child observers in attach order."""

    def __init__(self, observers: Iterable[SimObserver] = ()) -> None:
        self.observers: list[SimObserver] = list(observers)

    def add(self, observer: SimObserver) -> None:
        self.observers.append(observer)

    def on_arrival(self, t, job):
        for obs in self.observers:
            obs.on_arrival(t, job)

    def on_place(self, t, job, solution, solo_exec_time, postponements):
        for obs in self.observers:
            obs.on_place(t, job, solution, solo_exec_time, postponements)

    def on_finish(self, t, job, gpus):
        for obs in self.observers:
            obs.on_finish(t, job, gpus)

    def on_failure(self, t, machine, victims):
        for obs in self.observers:
            obs.on_failure(t, machine, victims)

    def on_requeue(self, t, job):
        for obs in self.observers:
            obs.on_requeue(t, job)

    def on_evict(self, t, job, gpus, reason):
        # getattr guard: on_evict post-dates the protocol, and custom
        # observers written against the original five hooks must keep
        # working unmodified.
        for obs in self.observers:
            hook = getattr(obs, "on_evict", None)
            if hook is not None:
                hook(t, job, gpus, reason)

    def on_decision_round(self, t, placed, queued, elapsed_s):
        for obs in self.observers:
            obs.on_decision_round(t, placed, queued, elapsed_s)


class RecordKeeper(BaseObserver):
    """Builds the per-job :class:`JobRecord` list from the event stream.

    The engine registers every trace job up front (arrival time and
    ideal execution time are known before the run starts); the hooks
    then fill in placement, completion and restart bookkeeping.
    """

    def __init__(self) -> None:
        self.records: dict[str, JobRecord] = {}

    def register(self, job: Job, ideal_exec_time: float) -> None:
        self.records[job.job_id] = JobRecord(
            job=job,
            arrival=job.arrival_time,
            ideal_exec_time=ideal_exec_time,
        )

    def record_of(self, job_id: str) -> JobRecord:
        return self.records[job_id]

    def on_place(self, t, job, solution, solo_exec_time, postponements):
        rec = self.records[job.job_id]
        rec.placed_at = t
        rec.gpus = tuple(sorted(solution.gpus))
        rec.utility = solution.utility
        rec.p2p = solution.p2p
        rec.solo_exec_time = solo_exec_time
        rec.postponements = postponements

    def on_finish(self, t, job, gpus):
        self.records[job.job_id].finished_at = t

    def on_requeue(self, t, job):
        # cold restart: the placement is void and training state is lost
        rec = self.records[job.job_id]
        rec.restarts += 1
        rec.placed_at = None
        rec.gpus = ()
        rec.utility = None
        rec.p2p = None
        rec.solo_exec_time = None

    def on_evict(self, t, job, gpus, reason):
        rec = self.records[job.job_id]
        if reason == "cancel":
            # terminal: keep the placement fields as a record of where
            # the job was running when it died, mirror finished_at.
            rec.cancelled_at = t
            return
        # warm eviction (preempt/migrate): progress is checkpointed, so
        # unlike on_requeue this is not a restart — but the current
        # placement is void until the scheduler re-places the job.
        rec.preemptions += 1
        if reason == "migrate":
            rec.migrations += 1
        rec.placed_at = None
        rec.gpus = ()
        rec.utility = None
        rec.p2p = None
        rec.solo_exec_time = None

    def mark_unplaceable(self, job_ids: Iterable[str]) -> None:
        for job_id in job_ids:
            self.records[job_id].unplaceable = True


class DecisionAccounting(BaseObserver):
    """Accumulates scheduler wall-clock time and round counts.

    The ``elapsed_s`` it receives is measured by the engine's
    ``decision_clock`` (``Simulator(..., decision_clock=...)``), which
    defaults to ``time.perf_counter``; tests inject a deterministic
    counter to assert exact accounting."""

    def __init__(self) -> None:
        self.decision_time_s = 0.0
        self.rounds = 0

    def on_decision_round(self, t, placed, queued, elapsed_s):
        self.decision_time_s += elapsed_s
        self.rounds += 1

    @property
    def mean_decision_time_s(self) -> float:
        if self.rounds == 0:
            return 0.0
        return self.decision_time_s / self.rounds
