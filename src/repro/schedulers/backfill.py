"""EASY backfilling baseline.

FIFO with a reservation for the head job: when the head does not fit,
it gets a reservation at the earliest time enough GPUs free up
(computed from profile-estimated completion times of running jobs);
younger jobs may jump the queue only if their estimated completion
precedes that reservation, so the head is never delayed.  The standard
HPC batch-scheduler discipline -- queue-smart but topology-blind, the
strongest non-topology baseline in our comparisons.
"""

from __future__ import annotations

from repro.core.placement import PlacementSolution
from repro.schedulers.base import Scheduler, SchedulingContext
from repro.schedulers.fcfs import FCFSScheduler
from repro.workload.job import Job
from repro.workload.profiles import ProfileDatabase, default_database


class BackfillScheduler(Scheduler):
    name = "EASY-BACKFILL"

    def __init__(self, profiles: ProfileDatabase | None = None) -> None:
        super().__init__()
        self.profiles = profiles or default_database()
        # job id -> estimated completion time of running placements
        self._estimated_end: dict[str, float] = {}

    def estimated_duration(self, job: Job) -> float:
        return self.profiles.for_job(job).solo_time(job.iterations)

    # ------------------------------------------------------------------
    def _head_reservation(
        self, ctx: SchedulingContext, head: Job
    ) -> float | None:
        """Earliest time some machine can host the head job.

        Walks each machine's running jobs in estimated-completion order
        and returns the soonest instant cumulative releases plus current
        free GPUs reach the head's demand.  ``None`` when even an empty
        machine could not host it.
        """
        best: float | None = None
        for machine in ctx.topo.machines():
            if not ctx.alloc.is_machine_up(machine):
                continue
            total = len(ctx.topo.gpus(machine=machine))
            if total < head.num_gpus:
                continue
            free = ctx.alloc.free_count(machine)
            if free >= head.num_gpus:
                return ctx.now
            releases = []
            for job_id in ctx.alloc.jobs_on_machine(machine):
                end = self._estimated_end.get(job_id, ctx.now)
                held_here = sum(
                    1
                    for g in ctx.alloc.gpus_of(job_id)
                    if ctx.topo.machine_of(g) == machine
                )
                releases.append((end, held_here))
            releases.sort()
            have = free
            for end, held in releases:
                have += held
                if have >= head.num_gpus:
                    candidate = max(end, ctx.now)
                    if best is None or candidate < best:
                        best = candidate
                    break
        return best

    # ------------------------------------------------------------------
    def schedule(self, ctx: SchedulingContext) -> list[PlacementSolution]:
        placed: list[PlacementSolution] = []
        view = self._round_view(ctx)
        # drop estimates of jobs that finished
        self._estimated_end = {
            job_id: end
            for job_id, end in self._estimated_end.items()
            if job_id in ctx.co_runners
        }

        def place(job: Job, gpus) -> None:
            solution = ctx.engine.score_allocation(
                job, tuple(gpus), view.current()
            )
            self._commit(ctx, view, placed, job, solution)
            self._estimated_end[job.job_id] = ctx.now + self.estimated_duration(job)

        # 1. place leading jobs FIFO while they fit
        while self._queue:
            head = self._queue[0].job
            gpus = FCFSScheduler._first_fit(ctx, head.num_gpus)
            if gpus is None:
                break
            place(head, gpus)
        if not self._queue:
            return placed

        # 2. head blocked: compute its reservation
        head = self._queue[0].job
        reservation = self._head_reservation(ctx, head)
        if reservation is None:
            # the head can never run; EASY keeps FIFO semantics and
            # blocks (the simulator will flag it unplaceable)
            return placed

        # 3. backfill: later jobs that fit now and would finish before
        #    the head's reservation
        for entry in list(self._queue[1:]):
            job = entry.job
            if ctx.now + self.estimated_duration(job) > reservation + 1e-9:
                continue
            gpus = FCFSScheduler._first_fit(ctx, job.num_gpus)
            if gpus is None:
                continue
            place(job, gpus)
        return placed
