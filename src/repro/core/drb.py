"""Dual Recursive Bipartitioning (paper Algorithm 2).

``drb_map`` recursively co-partitions the job graph and the physical
GPU pool: at every level the pool is split into two topologically
coherent halves (Fiduccia-Mattheyses over inverse-distance affinity,
:mod:`repro.core.bipartition`) and the tasks are split by utility
(Algorithm 3, :mod:`repro.core.job_bipartition`); recursion bottoms out
when a sub-pool has a single GPU, which receives at most one task.

The result is an injective ``task -> GPU`` mapping over free GPUs,
with complexity Theta(|E_A| * log2(|V_P|)) as analysed in the paper.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.bipartition import physical_bipartition
from repro.core.job_bipartition import ExternalRegion, job_graph_bipartition
from repro.core.utility import UtilityParams
from repro.obs import trace as _trace
from repro.topology.allocation import AllocationState
from repro.topology.graph import TopologyGraph
from repro.workload.job import Job
from repro.workload.jobgraph import JobGraph


def drb_map(
    topo: TopologyGraph,
    alloc: AllocationState,
    job: Job,
    jobgraph: JobGraph,
    pool: Sequence[str],
    co_runners: Mapping[str, tuple[Job, frozenset[str]]],
    params: UtilityParams = UtilityParams(),
    interference_model=None,
) -> dict[int, str]:
    """Map every task of ``jobgraph`` onto a distinct GPU from ``pool``.

    Raises ``ValueError`` when the pool is smaller than the task count.
    """
    from repro.perf.interference import InterferenceModel

    pool = list(pool)
    tasks = list(jobgraph.tasks())
    if len(tasks) > len(pool):
        raise ValueError(
            f"{job.job_id}: needs {len(tasks)} GPUs, pool has {len(pool)}"
        )
    model = interference_model or InterferenceModel(topo)
    mapping: dict[int, str] = {}
    with _trace.span(
        "drb.map", job_id=job.job_id, tasks=len(tasks), pool=len(pool)
    ):
        _recurse(
            topo,
            alloc,
            job,
            jobgraph,
            tuple(tasks),
            tuple(pool),
            co_runners,
            params,
            model,
            (),
            mapping,
        )
    return mapping


def _recurse(
    topo: TopologyGraph,
    alloc: AllocationState,
    job: Job,
    jobgraph: JobGraph,
    tasks: tuple[int, ...],
    pool: tuple[str, ...],
    co_runners: Mapping[str, tuple[Job, frozenset[str]]],
    params: UtilityParams,
    model,
    external: tuple[ExternalRegion, ...],
    mapping: dict[int, str],
    depth: int = 0,
) -> None:
    if not tasks:
        return
    if len(pool) == 1:
        if len(tasks) != 1:  # pragma: no cover - capacities guarantee this
            raise ValueError(
                f"{job.job_id}: {len(tasks)} tasks left for a single GPU"
            )
        mapping[tasks[0]] = pool[0]
        return
    with _trace.span(
        "drb.recurse", depth=depth, tasks=len(tasks), pool=len(pool)
    ) as sp:
        p0, p1 = physical_bipartition(topo, pool)
        a0, a1 = job_graph_bipartition(
            topo,
            alloc,
            job,
            jobgraph,
            tasks,
            p0,
            p1,
            co_runners,
            params,
            model,
            external,
        )
        sp.set(split_tasks=[len(a0), len(a1)], split_pool=[len(p0), len(p1)])
        _recurse(
            topo, alloc, job, jobgraph, a0, p0, co_runners, params, model,
            external + ((ExternalRegion(tasks=a1, gpus=p1),) if a1 else ()),
            mapping,
            depth + 1,
        )
        _recurse(
            topo, alloc, job, jobgraph, a1, p1, co_runners, params, model,
            external + ((ExternalRegion(tasks=a0, gpus=p0),) if a0 else ()),
            mapping,
            depth + 1,
        )
