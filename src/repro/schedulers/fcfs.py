"""First-Come-First-Served baseline (paper Section 5.2).

Strict FIFO: only the head of the queue is considered; if it does not
fit anywhere the whole queue waits (no backfilling).  GPU selection is
topology-blind first-fit: the lowest free GPU indices on the first
machine with enough capacity -- what a naive cloud scheduler does.
"""

from __future__ import annotations

from repro.core.placement import PlacementSolution
from repro.schedulers.base import Scheduler, SchedulingContext


class FCFSScheduler(Scheduler):
    name = "FCFS"

    def schedule(self, ctx: SchedulingContext) -> list[PlacementSolution]:
        placed: list[PlacementSolution] = []
        view = self._round_view(ctx)
        while self._queue:
            job = self._queue[0].job
            gpus = self._first_fit(ctx, job.num_gpus)
            if gpus is None:
                break  # head blocks the queue
            solution = ctx.engine.score_allocation(job, tuple(gpus), view.current())
            self._commit(ctx, view, placed, job, solution)
        return placed

    @staticmethod
    def _first_fit(ctx: SchedulingContext, n: int) -> list[str] | None:
        for machine in ctx.topo.machines():
            if ctx.alloc.free_count(machine) < n:  # O(1) quick reject
                continue
            free = ctx.alloc.free_gpus(machine=machine)
            free.sort(key=ctx.topo.gpu_index_of)
            return free[:n]
        return None
