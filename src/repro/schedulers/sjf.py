"""Shortest-Job-First baseline.

Orders the waiting queue by *estimated* solo run time (profile-driven,
Section 4.2-style) instead of arrival, then places greedily first-fit
like FCFS.  A classic throughput-oriented baseline: great mean waiting
time, starvation-prone for long jobs, and still topology-blind --
useful to separate "smarter queueing" from "smarter placement" when
comparing against TOPO-AWARE*.
"""

from __future__ import annotations

from repro.core.placement import PlacementSolution
from repro.schedulers.base import Scheduler, SchedulingContext
from repro.schedulers.fcfs import FCFSScheduler
from repro.workload.job import Job
from repro.workload.profiles import ProfileDatabase, default_database


class SJFScheduler(Scheduler):
    name = "SJF"

    def __init__(self, profiles: ProfileDatabase | None = None) -> None:
        super().__init__()
        self.profiles = profiles or default_database()

    def estimated_duration(self, job: Job) -> float:
        """Profile-estimated solo run time (packed placement)."""
        return self.profiles.for_job(job).solo_time(job.iterations)

    def schedule(self, ctx: SchedulingContext) -> list[PlacementSolution]:
        placed: list[PlacementSolution] = []
        view = self._round_view(ctx)
        max_free = ctx.alloc.max_free_count()
        pending = sorted(
            self.queued_jobs(),
            key=lambda j: (self.estimated_duration(j), j.arrival_time, j.job_id),
        )
        for job in pending:
            if job.num_gpus > max_free:
                continue
            gpus = FCFSScheduler._first_fit(ctx, job.num_gpus)
            if gpus is None:
                continue
            solution = ctx.engine.score_allocation(job, tuple(gpus), view.current())
            self._commit(ctx, view, placed, job, solution)
            max_free = ctx.alloc.max_free_count()
            if max_free == 0:
                break
        return placed
