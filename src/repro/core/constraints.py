"""Host filtering (Algorithm 1's ``filterHostsByConstraints``).

Candidate pools are built per machine and must satisfy the paper's
inequality constraints: enough free GPUs (``t_gpu <= p_gpu``) and
enough residual bus bandwidth (``t_bw <= p_bw``).  Jobs are packed on a
single node unless ``single_node=False``, in which case a spanning pool
over the least-loaded machines is offered when no single machine fits.
Anti-collocation jobs additionally need as many distinct free domains
(sockets, or machines when spanning) as tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.topology.allocation import AllocationState
from repro.topology.graph import TopologyGraph
from repro.workload.job import Job
from repro.workload.profiles import ProfileDatabase, default_database


@dataclass(frozen=True)
class CandidatePool:
    """A set of free GPUs a job may be mapped onto."""

    machines: tuple[str, ...]
    gpus: tuple[str, ...]

    @property
    def spans_machines(self) -> bool:
        return len(self.machines) > 1


@dataclass
class PrefilterStats:
    """What the top-k candidate prefilter did across an engine's life."""

    calls: int = 0
    considered: int = 0
    pruned: int = 0

    def as_dict(self) -> dict:
        total = self.considered + self.pruned
        return {
            "calls": self.calls,
            "considered": self.considered,
            "pruned": self.pruned,
            "prune_rate": (self.pruned / total) if total else 0.0,
        }


class CandidatePrefilter:
    """Top-k host prefilter configuration + accounting.

    ``top_k`` is the engine's candidate-pool budget: host filtering may
    stop probing as soon as that many machines survived every
    constraint, because the exhaustive scan orders survivors by
    (free count asc, name asc) and the engine only ever examines the
    first ``top_k`` pools — the capacity-dominance argument written up
    in DESIGN.md §9.  ``stats`` is optional so the one read-only pass
    left, the placement memo's fallback report (the first hit that asks
    for provenance on an entry solved without it), runs the same
    pruning without perturbing the engine's counters.
    """

    def __init__(self, top_k: int, stats: PrefilterStats | None = None) -> None:
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        self.top_k = top_k
        self.stats = stats

    def note(self, considered: int, pruned: int) -> None:
        if self.stats is not None:
            self.stats.calls += 1
            self.stats.considered += considered
            self.stats.pruned += pruned

    def readonly(self) -> "CandidatePrefilter":
        """A stats-less clone for the memo's tap-only fallback report."""
        return CandidatePrefilter(self.top_k, None)


def machine_bus_capacity(topo: TopologyGraph, machine: str) -> float:
    """Aggregate GPU-uplink bandwidth of a machine (the ``p_bw`` bound).

    Memoised on the graph (:attr:`TopologyGraph.bus_capacity_memo`),
    which drops it on every mutation -- it is consulted for every
    machine on every scheduling round.
    """
    per_topo = topo.bus_capacity_memo
    cached = per_topo.get(machine)
    if cached is not None:
        return cached
    total = 0.0
    for g in topo.gpus(machine=machine):
        best = 0.0
        for nbr in topo.neighbors(g):
            edge = topo.edge(g, nbr)
            if topo.node(nbr).kind is not topo.node(g).kind:  # uplink, not peer
                best = max(best, edge.spec.bandwidth_gbs)
        total += best
    per_topo[machine] = total
    return total


def _machine_demand(
    alloc: AllocationState,
    machine: str,
    co_runners: Mapping[str, tuple[Job, frozenset[str]]],
    profiles: ProfileDatabase,
) -> float:
    """Average bus demand of the jobs currently running on a machine."""
    demand = 0.0
    for job_id in alloc.jobs_on_machine(machine):
        entry = co_runners.get(job_id)
        if entry is not None:
            demand += profiles.for_job(entry[0]).avg_demand_gbs
    return demand


def _free_domains(topo: TopologyGraph, free: tuple[str, ...]) -> int:
    return len({topo.socket_of(g) for g in free})


def _machine_pool(alloc: AllocationState, machine: str) -> CandidatePool:
    """The single-machine pool of ``machine``'s whole free set, kept in
    :attr:`AllocationState.pool_memo` for as long as the allocator hands
    out the same :meth:`AllocationState.offer` tuple it was built on."""
    free = alloc.offer(machine)
    pool = alloc.pool_memo.get(machine)
    if pool is None or pool.gpus is not free:
        pool = alloc.pool_memo[machine] = CandidatePool((machine,), free)
    return pool


def filter_hosts(
    topo: TopologyGraph,
    alloc: AllocationState,
    job: Job,
    co_runners: Mapping[str, tuple[Job, frozenset[str]]] | None = None,
    profiles: ProfileDatabase | None = None,
    *,
    spanning_pool_factor: int = 4,
    report: dict | None = None,
    prefilter: CandidatePrefilter | None = None,
) -> list[CandidatePool]:
    """Candidate pools for ``job``, best-provisioned machines first.

    Returns an empty list when the job cannot currently be placed
    anywhere (the scheduler then re-queues it).

    ``report`` (optional) is a provenance out-param: when a dict is
    passed, it is filled with machine counts, per-constraint prune
    tallies and the surviving pool sizes.  Pure bookkeeping on values
    the filter computes anyway — passing it changes no result.

    ``prefilter`` (optional) switches to the top-k fast path: instead
    of scanning every machine, candidates are drawn from the
    allocator's capacity-bucket index in exactly the survivor order the
    exhaustive scan sorts into, and probing stops once ``top_k``
    machines survived every constraint.  Because the caller only ever
    consumes the first ``top_k`` pools, the returned prefix — and thus
    every placement — is identical; only the prune tallies of the
    never-probed tail differ (recorded under ``report["prefilter"]``).
    """
    co_runners = co_runners or {}
    profiles = profiles or default_database()
    job_demand = profiles.for_job(job).avg_demand_gbs
    if prefilter is not None:
        return _filter_hosts_prefiltered(
            topo,
            alloc,
            job,
            co_runners,
            profiles,
            job_demand,
            spanning_pool_factor,
            report,
            prefilter,
        )
    if report is not None:
        report.update(
            machines=len(topo.machines()),
            eligible=0,
            pruned={"free-gpus": 0, "bus-bandwidth": 0, "anti-collocation": 0},
            pool_sizes=[],
            spanning=False,
        )

    eligible: list[tuple[int, str]] = []
    for machine in topo.machines():
        n_free = alloc.free_count(machine)  # O(1) quick reject
        if n_free < job.num_gpus:
            if report is not None:
                report["pruned"]["free-gpus"] += 1
            continue
        capacity = machine_bus_capacity(topo, machine)
        used = _machine_demand(alloc, machine, co_runners, profiles)
        if used + job_demand > capacity:
            if report is not None:
                report["pruned"]["bus-bandwidth"] += 1
            continue
        eligible.append((n_free, machine))

    # tightest sufficient machines first (the omega_d consolidation
    # preference: fill fragmented domains before opening fresh ones);
    # utility comparison across pools still picks the best placement.
    eligible.sort(key=lambda item: (item[0], item[1]))
    pools = []
    for _, machine in eligible:
        pool = _machine_pool(alloc, machine)
        if job.anti_collocation and _free_domains(topo, pool.gpus) < job.num_gpus:
            if report is not None:
                report["pruned"]["anti-collocation"] += 1
            continue
        pools.append(pool)
    if pools or job.single_node:
        if report is not None:
            report["eligible"] = len(pools)
            report["pool_sizes"] = [len(p.gpus) for p in pools]
        return pools

    # multi-node spanning pool: least-loaded machines until the pool is
    # comfortably larger than the job (bounded to keep DRB cheap).
    ranked = sorted(
        ((alloc.free_count(m), m) for m in topo.machines()),
        key=lambda item: (-item[0], item[1]),
    )
    gpus: list[str] = []
    machines: list[str] = []
    target = job.num_gpus * spanning_pool_factor
    for count, machine in ranked:
        if count == 0:
            continue
        machines.append(machine)
        gpus.extend(alloc.offer(machine))
        if len(gpus) >= target:
            break
    if len(gpus) < job.num_gpus:
        return []
    if job.anti_collocation and len(machines) < job.num_gpus:
        return []
    if report is not None:
        report["eligible"] = 1
        report["pool_sizes"] = [len(gpus)]
        report["spanning"] = True
    return [CandidatePool(machines=tuple(machines), gpus=tuple(gpus))]


def _filter_hosts_prefiltered(
    topo: TopologyGraph,
    alloc: AllocationState,
    job: Job,
    co_runners: Mapping[str, tuple[Job, frozenset[str]]],
    profiles: ProfileDatabase,
    job_demand: float,
    spanning_pool_factor: int,
    report: dict | None,
    prefilter: CandidatePrefilter,
) -> list[CandidatePool]:
    """Top-k fast path of :func:`filter_hosts`.

    Candidates come from the allocator's capacity-bucket index in
    (free count asc, name asc) order — the exact order the exhaustive
    scan sorts survivors into — so stopping after ``top_k`` survivors
    returns the same pool prefix the caller would have consumed anyway.
    The capacity reject (``free < num_gpus``) is implicit: the bucket
    iterator never yields those machines, and their prune tally comes
    from the index in O(distinct counts).
    """
    need = job.num_gpus
    total_machines = len(topo.machines())
    capacity_eligible = alloc.eligible_machine_count(need)
    below_capacity = total_machines - capacity_eligible
    if report is not None:
        report.update(
            machines=total_machines,
            eligible=0,
            pruned={
                "free-gpus": below_capacity,
                "bus-bandwidth": 0,
                "anti-collocation": 0,
                "prefilter": 0,
            },
            pool_sizes=[],
            spanning=False,
            prefilter={"k": prefilter.top_k, "considered": 0, "pruned": 0},
        )

    pools: list[CandidatePool] = []
    probed = 0
    for machine in alloc.candidate_machines(need):
        probed += 1
        capacity = machine_bus_capacity(topo, machine)
        used = _machine_demand(alloc, machine, co_runners, profiles)
        if used + job_demand > capacity:
            if report is not None:
                report["pruned"]["bus-bandwidth"] += 1
            continue
        pool = _machine_pool(alloc, machine)
        if job.anti_collocation and _free_domains(topo, pool.gpus) < need:
            if report is not None:
                report["pruned"]["anti-collocation"] += 1
            continue
        pools.append(pool)
        if len(pools) >= prefilter.top_k:
            break
    skipped = capacity_eligible - probed
    prefilter.note(probed, skipped)
    if report is not None:
        report["prefilter"] = {
            "k": prefilter.top_k,
            "considered": probed,
            "pruned": skipped,
        }
        report["pruned"]["prefilter"] = skipped
    if pools or job.single_node:
        if report is not None:
            report["eligible"] = len(pools)
            report["pool_sizes"] = [len(p.gpus) for p in pools]
        return pools

    # multi-node spanning pool, fed by the bucket index most-free-first
    # (the exhaustive path's (-count, name) ranking) and stopping as
    # soon as the pool is comfortably larger than the job.
    gpus: list[str] = []
    machines: list[str] = []
    target = need * spanning_pool_factor
    for _count, machine in alloc.machines_by_free_desc():
        machines.append(machine)
        gpus.extend(alloc.offer(machine))
        if len(gpus) >= target:
            break
    if len(gpus) < need:
        return []
    if job.anti_collocation and len(machines) < need:
        return []
    if report is not None:
        report["eligible"] = 1
        report["pool_sizes"] = [len(gpus)]
        report["spanning"] = True
    return [CandidatePool(machines=tuple(machines), gpus=tuple(gpus))]
