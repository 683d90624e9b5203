"""Shared cluster state for the simulator and the prototype loop.

:class:`ClusterState` is the single owner of everything "the cluster
knows" at an instant: the topology, the GPU allocation bookkeeping,
the calibrated performance/interference models, machine health, and
the set of running jobs with their progress rates.  The discrete-event
engine (:mod:`repro.sim.engine`) and the prototype main loop
(:mod:`repro.prototype.system`) both operate on this one class instead
of each keeping ad-hoc running-job dicts next to an
:class:`~repro.topology.allocation.AllocationState`.

Progress accounting uses the standard progress-conservation technique:
each running job carries its *remaining solo work* in seconds and a
progress ``rate`` (the inverse of its interference slowdown), so
finish times are re-derived whenever allocations change.  Both live in
the columns of a :class:`RunningTable`, so advancing the clock costs
one vector operation, not one Python step per running job.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from repro.core.placement import PlacementEngine, PlacementSolution
from repro.core.utility import UtilityParams
from repro.perf.calibration import Calibration, DEFAULT_CALIBRATION
from repro.perf.interference import InterferenceModel
from repro.perf.model import PerformanceModel, Placement
from repro.sim.events import Finish
from repro.topology.allocation import AllocationState
from repro.topology.graph import TopologyGraph
from repro.workload.job import Job
from repro.workload.profiles import ProfileDatabase

#: A job whose remaining solo work is below this is considered done;
#: above it, a pending finish event is provably stale.
REMAINING_EPS = 1e-6

#: Rate changes smaller than this do not reschedule a finish event.
RATE_EPS = 1e-12


class RunningJob:
    """One job currently executing on the cluster.

    ``remaining`` (solo-work seconds left) and ``rate`` (progress per
    simulated second, 1/slowdown) live in a :class:`RunningTable`'s
    columns while the job sits in :attr:`ClusterState.running`, so one
    vector operation burns down every job at once; outside a table they
    are plain attributes.  Either way they read as Python ``float``.
    """

    __slots__ = ("job", "gpus", "solo", "version", "_remaining", "_rate",
                 "_table", "_slot")

    def __init__(
        self,
        job: Job,
        gpus: frozenset[str],
        remaining: float,
        rate: float,
        solo: float = 0.0,
        version: int = 0,
    ) -> None:
        self.job = job
        self.gpus = gpus
        #: total solo work under this placement (``remaining`` at start,
        #: before any resume surcharge); lets eviction turn the residual
        #: into a placement-independent progress fraction.
        self.solo = solo
        #: stamps Finish events; 0 means "no finish scheduled yet".
        #: Values are drawn from a cluster-wide monotonic counter so an
        #: event from a job's earlier incarnation (killed by a failure,
        #: later re-placed under the same id) can never collide with
        #: the new one.
        self.version = version
        self._remaining = remaining
        self._rate = rate
        self._table: RunningTable | None = None
        self._slot = -1

    @property
    def remaining(self) -> float:
        table = self._table
        if table is None:
            return self._remaining
        return table._remaining_view[self._slot]

    @remaining.setter
    def remaining(self, value: float) -> None:
        table = self._table
        if table is None:
            self._remaining = value
        else:
            table._remaining_view[self._slot] = value

    @property
    def rate(self) -> float:
        table = self._table
        if table is None:
            return self._rate
        return table._rate_view[self._slot]

    @rate.setter
    def rate(self, value: float) -> None:
        table = self._table
        if table is None:
            self._rate = value
        else:
            table._rate_view[self._slot] = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunningJob(job={self.job.job_id!r}, gpus={sorted(self.gpus)}, "
            f"remaining={self.remaining!r}, rate={self.rate!r}, "
            f"solo={self.solo!r}, version={self.version})"
        )


class RunningTable(dict):
    """``job_id -> RunningJob`` map that stores progress in columns.

    Every run in the table owns one slot of two float64 arrays,
    ``remaining`` and ``rate``; :meth:`burn` advances them all with one
    ``remaining -= dt * rate``.  That is the same IEEE-754 multiply and
    subtract per element as a per-job loop (numpy never contracts the
    two ufuncs into an FMA), so every value rounds identically.

    Assigning a run attaches it to a slot; ``pop`` and ``del`` detach
    it, copying its final values back onto the object and moving the
    last slot into the freed one.  The same mutations keep
    :attr:`co_runners` in step.  Reads are plain ``dict`` reads.
    """

    def __init__(self) -> None:
        super().__init__()
        self._columns(np.empty(64), np.empty(64))
        self._runs: list[RunningJob] = []  # slot -> run
        #: live ``job_id -> (job, gpus)`` view, in the table's order
        self.co_runners: dict[str, tuple[Job, frozenset[str]]] = {}

    def burn(self, dt: float) -> None:
        """Burn ``dt`` simulated seconds of progress off every run."""
        n = len(self._runs)
        if n:
            remaining = self._remaining[:n]
            remaining -= dt * self._rate[:n]

    def _columns(self, remaining: np.ndarray, rate: np.ndarray) -> None:
        self._remaining, self._rate = remaining, rate
        # single elements go through memoryviews of the same buffers:
        # indexing one yields a Python float, cheaper than ndarray.item
        self._remaining_view = memoryview(remaining)
        self._rate_view = memoryview(rate)

    def _attach(self, job_id: str, run: RunningJob) -> None:
        slot = len(self._runs)
        if slot == len(self._remaining):
            self._columns(
                np.concatenate([self._remaining, np.empty(slot)]),
                np.concatenate([self._rate, np.empty(slot)]),
            )
        self._remaining_view[slot] = run._remaining
        self._rate_view[slot] = run._rate
        self._runs.append(run)
        run._table, run._slot = self, slot
        self.co_runners[job_id] = (run.job, run.gpus)

    def _detach(self, job_id: str, run: RunningJob) -> None:
        slot = run._slot
        remaining, rate = self._remaining_view, self._rate_view
        run._remaining, run._rate = remaining[slot], rate[slot]
        run._table, run._slot = None, -1
        del self.co_runners[job_id]
        last = self._runs.pop()
        if last is not run:
            self._runs[slot] = last
            remaining[slot], rate[slot] = remaining[last._slot], rate[last._slot]
            last._slot = slot

    def __setitem__(self, job_id: str, run: RunningJob) -> None:
        if run._table is not None and self.get(job_id) is not run:
            raise ValueError(f"{job_id}: run is already in a running table")
        if job_id in self:
            del self[job_id]  # a reassigned id moves to the end of both views
        self._attach(job_id, run)
        super().__setitem__(job_id, run)

    def __delitem__(self, job_id: str) -> None:
        self._detach(job_id, self[job_id])
        super().__delitem__(job_id)

    _MISSING = object()

    def pop(self, job_id: str, default=_MISSING):
        run = super().pop(job_id, None)
        if run is None:
            if default is RunningTable._MISSING:
                raise KeyError(job_id)
            return default
        self._detach(job_id, run)
        return run

    def _unsupported(self, *args, **kwargs):
        raise TypeError("RunningTable changes only by item assignment, del and pop")

    popitem = setdefault = update = clear = __ior__ = _unsupported


class ClusterState:
    """Mutable cluster snapshot: allocations, running jobs, health."""

    def __init__(
        self,
        topo: TopologyGraph,
        *,
        calibration: Calibration = DEFAULT_CALIBRATION,
        params: UtilityParams = UtilityParams(),
        profiles: ProfileDatabase | None = None,
    ) -> None:
        self.topo = topo
        self.calibration = calibration
        self.params = params
        self.alloc = AllocationState(topo)
        self.perf = PerformanceModel(topo, calibration)
        self.interference = InterferenceModel(topo, calibration)
        self.engine = PlacementEngine(
            topo,
            self.alloc,
            params,
            profiles,
            self.interference,
        )
        self.running = RunningTable()
        self._co_runners = MappingProxyType(self.running.co_runners)
        self.now = 0.0
        self._ideal_cache: dict[tuple, float] = {}
        self._next_version = 0
        #: job id -> progress fraction in [0, 1) checkpointed by
        #: :meth:`preempt`; consumed (popped) by the next :meth:`start`
        #: so a re-placed victim resumes instead of restarting.
        self._checkpoints: dict[str, float] = {}

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def co_runners(self) -> Mapping[str, tuple[Job, frozenset[str]]]:
        """The running-job view schedulers and models consume.

        A read-only proxy, built once, over the dict the
        :class:`RunningTable` keeps in step with :attr:`running` (same
        items, same order) on every assignment and removal — not a
        copy.  Writing to it raises ``TypeError``; a scheduler adds its
        tentative placements to a :class:`~repro.schedulers.base.RoundView`.
        """
        return self._co_runners

    def machines_of(self, gpus: Iterable[str]) -> set[str]:
        return {self.topo.machine_of(g) for g in gpus}

    def ideal_exec_time(self, job: Job) -> float:
        """Best-pack-on-empty-cluster execution time, memoized.

        The memo holds the per-*iteration* ideal time, keyed by every
        job field the performance model reads — including
        ``comm_pattern``, which :meth:`PerformanceModel.solo_exec_time`
        branches on (model-parallel chains/rings cost differently from
        data-parallel all-reduce) — so jobs that differ only in
        ``iterations`` share one entry instead of colliding or missing.
        Enums enter by value, which hashes in C.
        """
        key = (
            job.model._value_, job.batch_size, job.num_gpus,
            job.comm_pattern._value_,
        )
        cached = self._ideal_cache.get(key)
        if cached is None:
            try:
                gpus = self.perf.placement_gpus(job, Placement.PACK)
                cached = self.perf.iteration_time(job, gpus)
            except ValueError:
                # job larger than the whole topology: it can never be
                # placed, so there is no ideal time (record stays 0 and
                # the job ends up marked unplaceable)
                cached = 0.0
            self._ideal_cache[key] = cached
        return job.iterations * cached

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    def advance_to(self, t: float) -> None:
        """Advance the clock, burning down every running job's work."""
        dt = t - self.now
        if dt < 0:
            raise RuntimeError(f"time went backwards: {self.now} -> {t}")
        if dt > 0:
            self.running.burn(dt)
        self.now = t

    # ------------------------------------------------------------------
    # job lifecycle
    # ------------------------------------------------------------------
    def start(self, job: Job, solution: PlacementSolution) -> tuple[float, set[str]]:
        """Begin executing a placed job.

        The placement's GPUs must already be committed to ``alloc`` (the
        scheduler enforces them during its decision round).  Returns the
        solo execution time under this placement and the set of touched
        machines whose co-runner rates need refreshing.

        A job with a preemption checkpoint (see :meth:`preempt`) resumes
        from its saved progress fraction: the remaining work is the
        unfinished share of the new placement's solo time plus the
        fixed migration cost (checkpoint restore + warm-up) from
        :class:`~repro.core.utility.UtilityParams`.
        """
        gpus = frozenset(solution.gpus)
        # task-indexed GPU order: model-parallel pipelines/rings are
        # charged per the mapping DRB chose, not an arbitrary sort
        by_task = [
            solution.task_mapping[t] for t in sorted(solution.task_mapping)
        ]
        solo = self.perf.solo_exec_time(job, by_task)
        remaining = solo
        progress = self._checkpoints.pop(job.job_id, None)
        if progress is not None:
            remaining = solo * (1.0 - progress) + self.params.migration_cost_s
        self.running[job.job_id] = RunningJob(
            job=job, gpus=gpus, remaining=remaining, rate=1.0,
            solo=solo, version=0,
        )
        return solo, self.machines_of(gpus)

    def finish(self, job_id: str) -> tuple[RunningJob, set[str]]:
        """Complete a job: free its GPUs, return it + touched machines."""
        run = self.running.pop(job_id)
        if run.remaining > REMAINING_EPS:
            raise RuntimeError(
                f"{job_id} finished with {run.remaining:.3f}s work left"
            )
        self.alloc.release(job_id)
        return run, self.machines_of(run.gpus)

    def cancel(self, job_id: str) -> tuple[RunningJob, set[str]]:
        """Kill a running job mid-flight: free its GPUs immediately.

        Unlike :meth:`finish` the job may have arbitrary work left —
        this is the service daemon's cancel verb, not a completion.
        Any pending :class:`~repro.sim.events.Finish` event for the job
        becomes stale automatically (its version no longer matches a
        running job).  Returns the cancelled run and the touched
        machines whose co-runner rates need refreshing.
        """
        run = self.running.pop(job_id)
        self.alloc.release(job_id)
        self._checkpoints.pop(job_id, None)  # cancellation is terminal
        return run, self.machines_of(run.gpus)

    def preempt(self, job_id: str) -> tuple[RunningJob, set[str]]:
        """Evict a running job, checkpointing its progress.

        Frees the job's GPUs like :meth:`cancel`, but saves the fraction
        of work already done so the next :meth:`start` resumes it (plus
        a migration-cost surcharge) instead of restarting from zero.
        Returns the evicted run and the touched machines.
        """
        run = self.running.pop(job_id)
        self.alloc.release(job_id)
        if run.solo > 0:
            progress = 1.0 - run.remaining / run.solo
            # the resume surcharge can push remaining above solo; clamp
            # so progress stays a fraction and never grows work
            self._checkpoints[job_id] = min(1.0, max(0.0, progress))
        return run, self.machines_of(run.gpus)

    def is_stale_finish(self, job_id: str, version: int) -> bool:
        """True when a Finish event no longer matches the running job."""
        run = self.running.get(job_id)
        return run is None or run.version != version

    # ------------------------------------------------------------------
    # machine health
    # ------------------------------------------------------------------
    def fail_machine(self, machine: str) -> tuple[list[RunningJob], set[str]]:
        """Fail-stop a machine: kill its jobs, free their GPUs.

        Returns the killed jobs (arrival order is the sorted job-id
        order ``AllocationState`` reports) and the touched machines —
        a spanning job may hold GPUs on healthy machines too, and its
        neighbours speed back up once it dies.  Resubmission is the
        caller's job: the engine re-queues, observers reset records.
        """
        victim_ids = self.alloc.set_machine_down(machine)
        touched = {machine}
        victims: list[RunningJob] = []
        for job_id in victim_ids:
            run = self.running.pop(job_id, None)
            if run is None:
                continue
            touched |= self.machines_of(run.gpus)
            self.alloc.release(job_id)
            # fail-stop loses in-memory training state: any checkpoint
            # from an earlier preemption is void too (cold restart)
            self._checkpoints.pop(job_id, None)
            victims.append(run)
        return victims, touched

    def recover_machine(self, machine: str) -> None:
        self.alloc.set_machine_up(machine)

    # ------------------------------------------------------------------
    # rate maintenance
    # ------------------------------------------------------------------
    def refresh_rates(self, touched_machines: set[str]) -> list[Finish]:
        """Recompute progress rates for jobs near changed machines.

        Every job whose rate changed (or that just started,
        ``version == 0``) gets its version bumped and a fresh
        :class:`~repro.sim.events.Finish` event returned for the engine
        to enqueue; any previously scheduled finish is thereby stale.
        """
        if not touched_machines:
            return []
        co = self.running.co_runners
        affected: set[str] = set()
        for m in touched_machines:
            affected |= self.alloc.jobs_on_machine(m)
        fresh: list[Finish] = []
        for job_id in sorted(affected):
            run = self.running.get(job_id)
            if run is None:
                continue
            factor = self.interference.slowdown_factor(
                run.job, run.gpus, co, self.alloc
            )
            new_rate = 1.0 / factor
            if abs(new_rate - run.rate) > RATE_EPS or run.version == 0:
                run.rate = new_rate
                self._next_version += 1
                run.version = self._next_version
                fresh.append(
                    Finish(
                        time=self.now + run.remaining / run.rate,
                        job_id=job_id,
                        version=run.version,
                    )
                )
        return fresh

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterState(now={self.now:.3f}, running={len(self.running)}, "
            f"alloc={self.alloc!r})"
        )
