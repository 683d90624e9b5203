"""Utility-based job-graph bipartitioning (paper Algorithm 3).

Given the two physical sub-partitions ``P0``/``P1`` produced by
:func:`repro.core.bipartition.physical_bipartition`, every task of the
job graph is assigned to the side offering the higher utility (Eq. 2),
subject to capacity: a side can never receive more tasks than it has
GPUs.

Per-side utility components for a task ``k``:

* **communication cost**: the task's edge weights towards tasks already
  assigned in this invocation *and* towards tasks fixed by ancestor
  splits (the paper's ``C`` array), each scaled by the representative
  distance between the candidate side and the region holding the peer;
* **interference** (Eq. 4): how much the side's GPUs would suffer
  from / inflict on the jobs currently running near them;
* **fragmentation** (Eq. 5): how much free capacity the side's sockets
  would retain.

Tasks are processed in descending communication-degree order so the
heaviest communicators anchor the partition deterministically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.utility import UtilityParams, fragmentation_after, raw_utility
from repro.topology.allocation import AllocationState
from repro.topology.graph import TopologyGraph
from repro.workload.job import Job
from repro.workload.jobgraph import JobGraph


@dataclass(frozen=True)
class ExternalRegion:
    """Tasks fixed to a GPU region by an ancestor split (the C array)."""

    tasks: tuple[int, ...]
    gpus: tuple[str, ...]


def _mean_distance(
    topo: TopologyGraph, a: Sequence[str], b: Sequence[str]
) -> float:
    """Representative distance between two GPU regions.

    For distinct regions: mean over cross pairs.  For a region against
    itself: mean over internal pairs (0 when it has a single GPU).
    """
    if not a or not b:
        return 0.0
    if tuple(a) == tuple(b):
        if len(a) < 2:
            return 0.0
        pairs = list(itertools.combinations(a, 2))
        return sum(topo.distance(u, v) for u, v in pairs) / len(pairs)
    total = 0.0
    count = 0
    for u in a:
        for v in b:
            if u != v:
                total += topo.distance(u, v)
                count += 1
    return total / count if count else 0.0


def job_graph_bipartition(
    topo: TopologyGraph,
    alloc: AllocationState,
    job: Job,
    jobgraph: JobGraph,
    tasks: Sequence[int],
    p0: Sequence[str],
    p1: Sequence[str],
    co_runners: Mapping[str, tuple[Job, frozenset[str]]],
    params: UtilityParams = UtilityParams(),
    interference_model=None,
    external: Sequence[ExternalRegion] = (),
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split ``tasks`` into (A0 -> P0, A1 -> P1) by per-task utility.

    Raises ``ValueError`` when the tasks cannot fit the two sides.
    """
    from repro.perf.interference import InterferenceModel

    tasks = list(tasks)
    p0 = list(p0)
    p1 = list(p1)
    if len(tasks) > len(p0) + len(p1):
        raise ValueError(
            f"{job.job_id}: {len(tasks)} tasks cannot fit "
            f"{len(p0)}+{len(p1)} GPUs"
        )
    model = interference_model or InterferenceModel(topo)

    # Side-level metrics are task-independent: compute once.
    interference = (
        model.eq4_interference(job, p0, co_runners, alloc),
        model.eq4_interference(job, p1, co_runners, alloc),
    )
    frag = (
        fragmentation_after(topo, alloc, p0),
        fragmentation_after(topo, alloc, p1),
    )
    # representative distances from each side to each region
    d_intra = (_mean_distance(topo, p0, p0), _mean_distance(topo, p1, p1))
    d_cross = _mean_distance(topo, p0, p1)
    d_external = [
        (_mean_distance(topo, p0, region.gpus), _mean_distance(topo, p1, region.gpus))
        for region in external
    ]
    sides = (p0, p1)

    assigned: list[list[int]] = [[], []]
    # heaviest communicators first, deterministic tie-break on task id
    order = sorted(tasks, key=lambda t: (-jobgraph.degree(t), t))
    for task in order:
        costs = []
        for side in (0, 1):
            cost = 0.0
            # peers already assigned in this invocation
            for peer in assigned[side]:
                cost += jobgraph.weight(task, peer) * d_intra[side]
            for peer in assigned[1 - side]:
                cost += jobgraph.weight(task, peer) * d_cross
            # peers fixed by ancestor splits (C array)
            for region, (d0, d1) in zip(external, d_external):
                d = d0 if side == 0 else d1
                for peer in region.tasks:
                    cost += jobgraph.weight(task, peer) * d
            costs.append(cost)
        utilities = [
            raw_utility(costs[side], interference[side], frag[side], params)
            for side in (0, 1)
        ]
        # Algorithm 3 line 7: prefer side 0 when its utility is >= and
        # capacity allows; otherwise side 1; otherwise whichever fits.
        prefer = 0 if utilities[0] >= utilities[1] else 1
        if len(assigned[prefer]) < len(sides[prefer]):
            assigned[prefer].append(task)
        elif len(assigned[1 - prefer]) < len(sides[1 - prefer]):
            assigned[1 - prefer].append(task)
        else:  # pragma: no cover - guarded by the initial capacity check
            raise ValueError(f"{job.job_id}: both sub-partitions are full")
    return tuple(sorted(assigned[0])), tuple(sorted(assigned[1]))
