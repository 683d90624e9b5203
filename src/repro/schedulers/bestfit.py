"""Best-Fit bin-packing baseline (paper Section 5.2).

"Best Fit (BF) performing bin packing (i.e. allocating first the GPUs
from highly used domains)."  The machine whose free capacity most
tightly fits the job wins; within it, GPUs are drawn from the most-used
sockets first.  Unlike FCFS, BF scans past a job that does not fit
(greedy backfilling), which is how real bin-packing schedulers behave.
Topology-blind: it happily splits a job across sockets if that packs
tighter.
"""

from __future__ import annotations

from repro.core.placement import PlacementSolution
from repro.schedulers.base import Scheduler, SchedulingContext


class BestFitScheduler(Scheduler):
    name = "BF"

    def schedule(self, ctx: SchedulingContext) -> list[PlacementSolution]:
        placed: list[PlacementSolution] = []
        view = self._round_view(ctx)
        max_free = ctx.alloc.max_free_count()
        for entry in list(self._queue):
            job = entry.job
            if job.num_gpus > max_free:
                continue  # cannot fit anywhere right now
            gpus = self._best_fit(ctx, job.num_gpus)
            if gpus is None:
                continue  # try the next job (backfill)
            solution = ctx.engine.score_allocation(job, tuple(gpus), view.current())
            self._commit(ctx, view, placed, job, solution)
            max_free = ctx.alloc.max_free_count()
            if max_free == 0:
                break
        return placed

    @staticmethod
    def _best_fit(ctx: SchedulingContext, n: int) -> list[str] | None:
        best_machine: str | None = None
        best_leftover: int | None = None
        for machine in ctx.topo.machines():
            free = ctx.alloc.free_count(machine)  # O(1)
            if free < n:
                continue
            leftover = free - n
            if best_leftover is None or leftover < best_leftover:
                best_machine = machine
                best_leftover = leftover
                if leftover == 0:
                    break  # cannot fit tighter
        if best_machine is None:
            return None
        # most-used sockets first ("GPUs from highly used domains")
        sockets = sorted(
            ctx.topo.sockets(machine=best_machine),
            key=lambda s: (
                len(ctx.alloc.free_gpus(socket=s)),
                s,
            ),
        )
        chosen: list[str] = []
        for sock in sockets:
            for g in sorted(
                ctx.alloc.free_gpus(socket=sock), key=ctx.topo.gpu_index_of
            ):
                chosen.append(g)
                if len(chosen) == n:
                    return chosen
        return None  # pragma: no cover - capacity checked above
