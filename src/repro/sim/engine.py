"""Discrete-event simulation engine (thin orchestrator).

The kernel is layered (see DESIGN.md §3):

* :mod:`repro.sim.events` — typed events and the versioned
  :class:`~repro.sim.events.EventQueue`;
* :mod:`repro.sim.cluster` — :class:`~repro.sim.cluster.ClusterState`,
  the single owner of allocations, running jobs and progress rates;
* :mod:`repro.sim.hooks` — :class:`~repro.sim.hooks.SimObserver`
  taps for record keeping, accounting, Gantt/metrics timelines;
* this module — :class:`Simulator`, which only wires queue + cluster +
  scheduler + observers together.

The scheduler runs after every batch of simultaneous events (the
paper's Algorithm 1 "wakeup after an event, e.g. a job has finished").
Each running job carries its *remaining solo work* in seconds; its
progress rate is the inverse of its current interference slowdown
factor, so finish times are re-derived whenever allocations change.
Stale finish events are version-guarded.

The event loop is *steppable*: :meth:`Simulator.start` arms the run,
:meth:`Simulator.step` processes one batch of simultaneous events plus
the decision round it triggers, and :meth:`Simulator.finish` builds
the :class:`SimulationResult`.  :meth:`Simulator.run` composes the
three exactly as the pre-refactor monolithic loop did (pinned by the
golden-equivalence tests), while the scheduler service
(:mod:`repro.service.daemon`) drives the same kernel externally:
:meth:`Simulator.submit_job` feeds arrivals that were never part of a
pre-generated trace and :meth:`Simulator.cancel_job` withdraws them
again, so a one-shot batch replay and a long-running daemon share one
event loop.

``JobRecord``, ``SimulationResult`` and ``MachineFailure`` are
re-exported here for backwards compatibility; their homes are
:mod:`repro.sim.records` and :mod:`repro.sim.events`.
"""

from __future__ import annotations

import time as _time
from typing import Callable, Iterable

from repro.core.utility import UtilityParams
from repro.perf.calibration import Calibration, DEFAULT_CALIBRATION
from repro.schedulers.base import Scheduler, SchedulingContext
from repro.sim.cluster import ClusterState
from repro.sim.events import (
    Arrival,
    EventQueue,
    Failure,
    Finish,
    MachineFailure,
    Recovery,
)
from repro.sim.hooks import (
    CompositeObserver,
    DecisionAccounting,
    RecordKeeper,
    SimObserver,
)
from repro.sim.records import JobRecord, SimulationResult
from repro.topology.graph import TopologyGraph
from repro.workload.job import Job
from repro.workload.profiles import ProfileDatabase

__all__ = [
    "JobRecord",
    "MachineFailure",
    "SimulationResult",
    "Simulator",
    "run_comparison",
]


class Simulator:
    """Replay a job list under one scheduler on one topology."""

    def __init__(
        self,
        topo: TopologyGraph,
        scheduler: Scheduler,
        jobs: Iterable[Job],
        *,
        calibration: Calibration = DEFAULT_CALIBRATION,
        params: UtilityParams = UtilityParams(),
        profiles: ProfileDatabase | None = None,
        failures: Iterable[MachineFailure] = (),
        cluster: ClusterState | None = None,
        observers: Iterable[SimObserver] = (),
        decision_clock: Callable[[], float] = _time.perf_counter,
    ) -> None:
        self.topo = topo
        self.scheduler = scheduler
        scheduler.attach(self)
        self.jobs: list[Job] = sorted(jobs, key=lambda j: (j.arrival_time, j.job_id))
        ids = [j.job_id for j in self.jobs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate job ids in trace")
        if cluster is None:
            cluster = ClusterState(
                topo, calibration=calibration, params=params, profiles=profiles
            )
        elif cluster.topo is not topo:
            raise ValueError("cluster was built for a different topology")
        self.cluster = cluster
        self.calibration = cluster.calibration
        self.observers = list(observers)
        #: wall-clock source for decision-round timing; injectable so
        #: tests can assert exact accounting instead of ``>= 0``
        self.decision_clock = decision_clock
        self.failures = sorted(failures, key=lambda f: f.at_time)
        machines = set(topo.machines())
        for failure in self.failures:
            if failure.machine not in machines:
                raise ValueError(f"failure names unknown machine {failure.machine!r}")
        # steppable-run state, armed by start()
        self._started = False
        self._events: EventQueue | None = None
        self._jobs_by_id: dict[str, Job] = {}
        self._job_order: list[Job] = []
        self._cancelled: set[str] = set()
        self._records: RecordKeeper | None = None
        self._accounting: DecisionAccounting | None = None
        self._notify: CompositeObserver | None = None
        #: decision flight recorder found among the observers (see
        #: start()); threaded through the SchedulingContext so the
        #: scheduler can emit provenance records
        self.decision_recorder = None

    # ------------------------------------------------------------------
    # cluster-state views (back-compat with the pre-layered engine)
    # ------------------------------------------------------------------
    @property
    def alloc(self):
        return self.cluster.alloc

    @property
    def perf(self):
        return self.cluster.perf

    @property
    def interference(self):
        return self.cluster.interference

    @property
    def engine(self):
        return self.cluster.engine

    # ------------------------------------------------------------------
    # steppable event loop
    # ------------------------------------------------------------------
    def start(self) -> "Simulator":
        """Arm the event loop: register trace jobs, queue failures.

        After ``start()`` the loop is driven either by :meth:`run`
        (batch mode) or externally by :meth:`step` / :meth:`submit_job`
        / :meth:`cancel_job` (service mode).
        """
        if self._started:
            raise RuntimeError("Simulator.start() called twice")
        self._started = True
        self._records = RecordKeeper()
        self._accounting = DecisionAccounting()
        self._notify = CompositeObserver(
            [self._records, self._accounting, *self.observers]
        )
        # duck-typed discovery: an attached DecisionRecorder advertises
        # wants_decision_provenance, and run_round threads it through
        # the SchedulingContext (None — the default — keeps the
        # scheduler's hot path provenance-free)
        self.decision_recorder = next(
            (
                o
                for o in self.observers
                if getattr(o, "wants_decision_provenance", False)
            ),
            None,
        )
        self._events = EventQueue()
        for job in self.jobs:
            self._register(job)
        for failure in self.failures:
            self._events.push(Failure(failure.at_time, failure.machine))
            if failure.duration_s is not None:
                self._events.push(
                    Recovery(failure.at_time + failure.duration_s, failure.machine)
                )
        return self

    def _register(self, job: Job) -> None:
        self._jobs_by_id[job.job_id] = job
        self._job_order.append(job)
        self._records.register(job, self.cluster.ideal_exec_time(job))
        self._events.push(Arrival(job.arrival_time, job.job_id))

    @property
    def pending_events(self) -> int:
        """Events still queued (0 means the loop is drained/idle)."""
        return len(self._events) if self._events is not None else 0

    def submit_job(self, job: Job) -> None:
        """Feed one externally submitted job into the armed event loop.

        The service daemon's write path: the job joins the record
        keeper and an :class:`~repro.sim.events.Arrival` is queued at
        its arrival time, exactly as a trace job would have been.  The
        arrival must not lie in the simulated past (callers clamp to
        ``cluster.now``).
        """
        if not self._started:
            raise RuntimeError("submit_job() before start()")
        if job.job_id in self._jobs_by_id:
            raise ValueError(f"duplicate job id {job.job_id!r}")
        if job.arrival_time < self.cluster.now:
            raise ValueError(
                f"job {job.job_id!r} arrives at {job.arrival_time:.6f}, "
                f"before the simulated present {self.cluster.now:.6f}"
            )
        self._register(job)

    def cancel_job(self, job_id: str) -> tuple[str, set[str]]:
        """Withdraw a job from the loop; returns (phase, touched machines).

        ``phase`` reports where the job was caught: ``"pending"`` (its
        arrival event had not fired yet), ``"queued"`` (waiting in the
        scheduler queue), or ``"running"`` (its GPUs were released —
        the returned machines need a :meth:`run_round` so neighbours
        speed back up and the freed slots are reoffered).  Raises
        :class:`KeyError` for unknown or already-terminal jobs.

        Every phase fires ``on_evict(..., reason="cancel")`` so record
        keeping, Gantt, utilization and telemetry observers close the
        job out instead of believing it still occupies its GPUs (or is
        still pending); for non-running phases the GPU set is empty.
        """
        if not self._started:
            raise RuntimeError("cancel_job() before start()")
        if job_id not in self._jobs_by_id or job_id in self._cancelled:
            raise KeyError(job_id)
        if job_id in self.cluster.running:
            self._cancelled.add(job_id)
            run, touched = self.cluster.cancel(job_id)
            self._notify.on_evict(self.cluster.now, run.job, run.gpus, "cancel")
            return "running", touched
        job = self._jobs_by_id[job_id]
        if self.scheduler.withdraw(job_id):
            self._cancelled.add(job_id)
            self._notify.on_evict(self.cluster.now, job, frozenset(), "cancel")
            return "queued", set()
        self._cancelled.add(job_id)  # arrival event still pending
        self._notify.on_evict(self.cluster.now, job, frozenset(), "cancel")
        return "pending", set()

    def preempt_job(self, job_id: str) -> set[str]:
        """Evict a running job back to the queue, keeping its progress.

        The service daemon's operator verb: the job's GPUs are freed,
        its progress fraction is checkpointed
        (:meth:`ClusterState.preempt`), and it is resubmitted to the
        scheduler queue so a later decision round re-places it — the
        resumed run carries only its unfinished work plus the migration
        cost.  Returns the touched machines; callers pass them to
        :meth:`run_round` so neighbours speed up and the freed capacity
        is reoffered immediately.  Raises :class:`KeyError` unless the
        job is currently running.
        """
        if not self._started:
            raise RuntimeError("preempt_job() before start()")
        if job_id in self._cancelled or job_id not in self.cluster.running:
            raise KeyError(job_id)
        run, touched = self.cluster.preempt(job_id)
        self._notify.on_evict(self.cluster.now, run.job, run.gpus, "preempt")
        self.scheduler.submit(run.job)
        return touched

    def step(self) -> bool:
        """Process the next batch of simultaneous events plus the
        decision round it wakes; returns whether events remain."""
        events = self._events
        if not events:
            return False
        cluster = self.cluster
        scheduler = self.scheduler
        notify = self._notify
        t = events.next_time()
        cluster.advance_to(t)
        touched: set[str] = set()
        # drain all events at time t before scheduling
        for event in events.pop_due(t):
            if isinstance(event, Arrival):
                if event.job_id in self._cancelled:
                    continue  # cancelled before its arrival fired
                job = self._jobs_by_id[event.job_id]
                scheduler.submit(job)
                notify.on_arrival(t, job)
            elif isinstance(event, Finish):
                if cluster.is_stale_finish(event.job_id, event.version):
                    continue
                run, machines = cluster.finish(event.job_id)
                touched |= machines
                notify.on_finish(t, run.job, run.gpus)
            elif isinstance(event, Failure):
                victims, machines = cluster.fail_machine(event.machine)
                touched |= machines
                notify.on_failure(t, event.machine, [v.job for v in victims])
                for victim in victims:
                    scheduler.submit(victim.job)
                    notify.on_requeue(t, victim.job)
            else:  # Recovery
                cluster.recover_machine(event.machine)
        self.run_round(touched)
        return bool(events)

    def run_round(self, touched: set[str] | frozenset[str] = frozenset()) -> int:
        """One scheduler decision round at the simulated present.

        ``touched`` carries machines whose co-runner rates must be
        refreshed (finished/failed/cancelled allocations).  The service
        daemon calls this directly after a cancel so freed capacity is
        reoffered without waiting for the next event.  Returns the
        number of placements enforced.
        """
        cluster = self.cluster
        scheduler = self.scheduler
        notify = self._notify
        t = cluster.now
        touched = set(touched)

        def _evict(job_id: str, reason: str) -> None:
            # bound eviction verb for preempting policies: checkpoint
            # and free the victim, notify observers, and (for preempt)
            # re-queue it; a migrating policy re-places the job itself
            # within the same round.
            run, machines = cluster.preempt(job_id)
            touched.update(machines)
            notify.on_evict(t, run.job, run.gpus, reason)
            if reason == "preempt":
                scheduler.submit(run.job)

        ctx = SchedulingContext(
            topo=self.topo,
            alloc=cluster.alloc,
            engine=cluster.engine,
            co_runners=cluster.co_runners(),
            now=t,
            cluster=cluster,
            recorder=self.decision_recorder,
            evict=_evict,
        )
        t0 = self.decision_clock()
        placements = scheduler.schedule(ctx)
        elapsed = self.decision_clock() - t0
        for solution in placements:
            job = self._jobs_by_id[solution.job_id]
            solo, machines = cluster.start(job, solution)
            touched |= machines
            notify.on_place(
                t,
                job,
                solution,
                solo,
                scheduler.postponements.get(job.job_id, 0),
            )
        notify.on_decision_round(
            t, placements, scheduler.queue_length(), elapsed
        )
        for finish in cluster.refresh_rates(touched):
            self._events.push(finish)
        return len(placements)

    def finish(self) -> SimulationResult:
        """Build the result for everything processed so far (pure)."""
        record_list = [
            self._records.record_of(j.job_id) for j in self._job_order
        ]
        makespan = max(
            (r.finished_at for r in record_list if r.finished_at is not None),
            default=0.0,
        )
        return SimulationResult(
            scheduler_name=self.scheduler.name,
            records=record_list,
            makespan=makespan,
            decision_time_s=self._accounting.decision_time_s,
            decision_rounds=self._accounting.rounds,
            placement_stats=self.cluster.engine.stats.as_dict(),
            prefilter_stats=self.cluster.engine.prefilter_stats(),
        )

    def record_of(self, job_id: str) -> JobRecord:
        """Live per-job record (service read side)."""
        return self._records.record_of(job_id)

    def mark_unplaceable(self, job_ids: Iterable[str]) -> None:
        """Flag queued jobs nothing can unblock (drained loop, idle
        cluster) — the service daemon's analogue of :meth:`run`'s
        stuck-queue exit."""
        self._records.mark_unplaceable(job_ids)

    def run(self) -> SimulationResult:
        """Run to completion and return per-job records."""
        self.start()
        while self._events:
            self.step()
            if not self._events and self.scheduler.queue_length() > 0:
                if not self.cluster.running:
                    # nothing can unblock the queue: mark unplaceable
                    self.mark_unplaceable(
                        job.job_id for job in self.scheduler.queued_jobs()
                    )
                    break
        return self.finish()


def __getattr__(name: str):
    # run_comparison moved to repro.sim.runner; keep the old import path
    # working without a circular module-level import.
    if name == "run_comparison":
        from repro.sim.runner import run_comparison

        return run_comparison
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
