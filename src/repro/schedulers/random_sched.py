"""Random feasible placement -- an ablation baseline.

Not in the paper's evaluation, but useful to bound how much of the
topology-aware gain comes from *any* structured choice versus chance:
picks a uniformly random feasible machine and a random subset of its
free GPUs.  Deterministic under a fixed seed.
"""

from __future__ import annotations

import random

from repro.core.placement import PlacementSolution
from repro.schedulers.base import Scheduler, SchedulingContext


class RandomScheduler(Scheduler):
    name = "RANDOM"

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self._rng = random.Random(seed)

    def schedule(self, ctx: SchedulingContext) -> list[PlacementSolution]:
        placed: list[PlacementSolution] = []
        view = self._round_view(ctx)
        for entry in list(self._queue):
            job = entry.job
            candidates = [
                m
                for m in ctx.topo.machines()
                if ctx.alloc.free_count(m) >= job.num_gpus
            ]
            if not candidates:
                continue
            machine = self._rng.choice(candidates)
            free = ctx.alloc.free_gpus(machine=machine)
            gpus = tuple(sorted(self._rng.sample(free, job.num_gpus)))
            solution = ctx.engine.score_allocation(job, gpus, view.current())
            self._commit(ctx, view, placed, job, solution)
        return placed
