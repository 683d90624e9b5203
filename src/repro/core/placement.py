"""The end-to-end placement function psi(A, P) (paper Section 4.4).

:class:`PlacementEngine` glues the pieces together: filter hosts,
normalise the job graph by the machine bandwidth, run DRB on every
candidate pool, score each mapping with the utility function and
return the best :class:`PlacementSolution`.  The scheduler policies
(:mod:`repro.schedulers`) then decide whether to enforce or postpone
the proposed solution.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Mapping

from repro.core.constraints import (
    CandidatePool,
    CandidatePrefilter,
    PrefilterStats,
    filter_hosts,
)
from repro.core.drb import drb_map
from repro.core.utility import (
    SLO_EPS,
    SolutionMetrics,
    UtilityParams,
    evaluate_solution,
)
from repro.perf.interference import InterferenceModel
from repro.topology.allocation import AllocationState
from repro.topology.graph import TopologyGraph
from repro.workload.job import Job
from repro.workload.jobgraph import JobGraph, job_graph_for
from repro.workload.profiles import ProfileDatabase, default_database


@dataclass(frozen=True)
class PlacementSolution:
    """A scored GPU allocation for one job."""

    job_id: str
    gpus: tuple[str, ...]
    task_mapping: Mapping[int, str]
    metrics: SolutionMetrics
    pool: CandidatePool
    p2p: bool  # every GPU pair of the allocation can exchange P2P

    @property
    def utility(self) -> float:
        """Normalised utility in [0, 1] (checked against the job SLO)."""
        return self.metrics.utility

    def satisfies(self, job: Job) -> bool:
        """SLO check used by TOPO-AWARE-P: utility above the job's
        threshold, and P2P available when the job requires it."""
        if self.utility < job.min_utility - SLO_EPS:
            return False
        if job.requires_p2p and not self.p2p:
            return False
        return True


@dataclass
class PlacementStats:
    """Placement-memo effectiveness counters (exported via ``obs``).

    ``invalidations`` counts allocation-epoch rotations observed
    between lookups — proposals that could not reuse the previous
    lookup's pool state (entries themselves are keyed on the allocation
    digest and survive rotations until the LRU evicts them).
    """

    hits: int = 0
    misses: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }


@dataclass
class PoolSolveStats:
    """Pool-solve cache hits on a pool already solved in the same
    proposal or in an earlier one."""

    hits_in_proposal: int = 0
    hits_across: int = 0


#: distinguishes "memoised None (no fit)" from "not memoised"
_MISS = object()

#: co-runner entry of the job being placed in a pool-solve key: the
#: interference model skips the scored job's own id
_SELF = "self"


class PlacementEngine:
    """Computes topology-aware placements over a live allocation state.

    ``memo_size`` bounds the propose memo: solved proposals (including
    no-fit ``None`` results) are reused for equivalent jobs.  The key
    (see :meth:`_memo_key`) is the job's placement-equivalence fields
    plus :attr:`AllocationState.digest` — a hash of exactly which job
    owns which GPU and which machines are down — and the size of the
    co-runner view.  It costs O(1) to build whatever the cluster size,
    and entries survive allocation epochs: a cluster that returns to
    an earlier state (an emptied fleet, a probe that frees a victim's
    GPUs and puts them back) replays the answer the engine would
    recompute.  Stale entries age out of the LRU.  ``0`` disables
    memoisation entirely.

    Host filtering runs through the top-k candidate prefilter: it
    draws host candidates from the allocator's capacity-bucket index
    and stops probing once :attr:`max_pools` machines survived every
    constraint, instead of scanning the whole fleet per proposal.  It
    returns exactly the pools the exhaustive scan would hand the pool
    loop (see DESIGN.md §9; ``repro.analysis.bench`` keeps the
    exhaustive reference engine that proves it).

    Inside a proposal, every single-machine pool is solved through a
    bounded LRU pool-solve cache keyed on a machine-canonical
    signature (:meth:`_pool_key`): a pool equal up to relabelling to
    one solved before — on a same-shaped machine in this proposal, or
    on a machine back in an earlier state — replays that solve on its
    own GPUs.  It is always on and exact, not a switch.
    """

    def __init__(
        self,
        topo: TopologyGraph,
        alloc: AllocationState,
        params: UtilityParams = UtilityParams(),
        profiles: ProfileDatabase | None = None,
        interference_model: InterferenceModel | None = None,
        memo_size: int = 512,
    ) -> None:
        self.topo = topo
        self.alloc = alloc
        self.params = params
        self.profiles = profiles or default_database()
        self.interference = interference_model or InterferenceModel(topo)
        self._reference_bw = self._max_pair_bandwidth()
        self.memo_size = memo_size
        self.stats = PlacementStats()
        self._memo: OrderedDict[tuple, PlacementSolution | None] = OrderedDict()
        self._memo_version = -1
        self.pool_stats = PoolSolveStats()
        self._pool_solves: OrderedDict[tuple, tuple] = OrderedDict()
        self._proposals = 0
        #: machine -> (shape id, GPU name -> local index, local index
        #: -> GPU name), filled on first use
        self._machine_tables: dict[str, tuple[int, dict[str, int], tuple[str, ...]]] = {}
        self._shape_ids: dict[tuple, int] = {}
        self.prefilter = CandidatePrefilter(self.max_pools, PrefilterStats())

    def _max_pair_bandwidth(self) -> float:
        """Best GPU-pair bandwidth on the first machine (normalisation base)."""
        machine = self.topo.machines()[0]
        gpus = self.topo.gpus(machine=machine)
        best = 0.0
        for i, a in enumerate(gpus):
            for b in gpus[i + 1 :]:
                best = max(best, self.topo.bottleneck_bandwidth(a, b))
        return best or 1.0

    # ------------------------------------------------------------------
    def job_graph(self, job: Job) -> JobGraph:
        """The job's communication graph (by declared pattern),
        bandwidth-normalised as in Section 4.1.1."""
        return job_graph_for(job).normalised(self._reference_bw / 10.0)

    #: how many candidate pools get a full DRB evaluation per proposal;
    #: pools are pre-sorted tightest-fit first, so a handful suffices
    #: while keeping large-cluster scheduling tractable.
    max_pools: int = 8

    #: bound on the pool-solve cache (LRU); eviction only forces a
    #: re-solve
    POOL_SOLVES_MAX = 4096

    @staticmethod
    def _job_fields(job: Job) -> tuple:
        """Every job field a proposal reads besides ``job_id`` (see
        :meth:`_memo_key`); shared by both cache keys."""
        return (
            job.model,
            job.batch_size,
            job.num_gpus,
            job.comm_pattern,
            job.anti_collocation,
            job.single_node,
            job.p2p,
        )

    def _memo_key(
        self, job: Job, co_runners: Mapping[str, tuple[Job, frozenset[str]]]
    ) -> tuple:
        """Equivalence class of a proposal.

        Two proposals with equal keys get the same answer: every job
        field :meth:`propose` reads is included (``job_id``,
        ``iterations``, ``min_utility``, ``arrival_time`` and ``tags``
        are provably unread there), and the allocation digest pins
        which GPUs are on offer and which job holds each busy one.
        That also pins the interference neighbourhood: proposals read
        co-runners only through point lookups of the jobs
        :meth:`AllocationState.jobs_on_machine` names, visited in
        sorted id order, and a job id names one immutable Job for the
        lifetime of a run — so neither the view's iteration order nor
        its entries for jobs without GPUs can reach a result.  The
        view's length keeps an empty view (a caller that omits
        ``co_runners``) from sharing entries with the full view of the
        same allocation.
        """
        return self._job_fields(job) + (self.alloc.digest, len(co_runners))

    def propose(
        self,
        job: Job,
        co_runners: Mapping[str, tuple[Job, frozenset[str]]] | None = None,
        provenance: dict | None = None,
    ) -> PlacementSolution | None:
        """Best placement currently available, or ``None`` if none fits.

        Memoised on the allocation state (see class docstring); a hit
        returns the cached solution re-labelled with this job's id.

        ``provenance`` (optional) is a decision-provenance out-param:
        when a dict is passed it is filled with memo hit/miss state,
        the candidate-pool report and the per-pool evaluation results.
        On a memo hit the pool report is recomputed via a read-only
        ``filter_hosts`` pass (the cached answer skipped it), so every
        decision record carries its candidate-pool sizes; the extra
        pass only runs when provenance is requested and mutates
        nothing, keeping results bit-identical.
        """
        co_runners = co_runners or {}
        if self.memo_size <= 0:
            if provenance is not None:
                provenance["memo"] = {"enabled": False, "hit": False}
            return self._propose(job, co_runners, provenance)
        version = self.alloc.version
        if version != self._memo_version:
            # the pool moved since the last lookup: count an epoch
            # rotation (existing entries keep their digest keys and
            # stay replayable should the pool return to that state)
            if self._memo:
                self.stats.invalidations += 1
            self._memo_version = version
        key = self._memo_key(job, co_runners)
        cached = self._memo.get(key, _MISS)
        if cached is not _MISS:
            self._memo.move_to_end(key)
            self.stats.hits += 1
            if provenance is not None:
                provenance["memo"] = {"enabled": True, "hit": True}
                report: dict = {}
                # stats-less clone: the re-report is a pure tap and
                # must not perturb the engine's prefilter counters
                self._candidate_pools(
                    job, co_runners, report, self.prefilter.readonly()
                )
                provenance["pools"] = report
            if cached is None:
                return None
            return replace(cached, job_id=job.job_id)
        self.stats.misses += 1
        if provenance is not None:
            provenance["memo"] = {"enabled": True, "hit": False}
        solution = self._propose(job, co_runners, provenance)
        self._memo[key] = solution
        if len(self._memo) > self.memo_size:
            self._memo.popitem(last=False)
        return solution

    def _propose(
        self,
        job: Job,
        co_runners: Mapping[str, tuple[Job, frozenset[str]]],
        provenance: dict | None = None,
    ) -> PlacementSolution | None:
        self._proposals += 1
        # k tracks the engine's pool budget: probing may stop only once
        # the budget the loop below consumes is full
        self.prefilter.top_k = self.max_pools
        report = {} if provenance is not None else None
        pools = self._candidate_pools(job, co_runners, report, self.prefilter)
        if provenance is not None:
            provenance["pools"] = report
        if not pools:
            if provenance is not None:
                provenance["reason"] = "no-feasible-pool"
            return None
        jobgraph = self.job_graph(job)
        best: PlacementSolution | None = None
        candidates = [] if provenance is not None else None
        for pool in pools[: self.max_pools]:
            solution = self._solve(job, jobgraph, pool, co_runners)
            if candidates is not None:
                candidates.append({
                    "machines": list(pool.machines),
                    "pool_gpus": len(pool.gpus),
                    "utility": None if solution is None else solution.utility,
                    "p2p": None if solution is None else solution.p2p,
                })
            if solution is None:
                continue
            if best is None or solution.utility > best.utility + 1e-12:
                best = solution
            if best.utility >= 1.0 - 1e-12:
                break  # cannot improve on a perfect placement
        if provenance is not None:
            provenance["candidates"] = candidates
            if best is None:
                provenance["reason"] = "no-mapping"
        return best

    def _candidate_pools(
        self,
        job: Job,
        co_runners: Mapping[str, tuple[Job, frozenset[str]]],
        report: dict | None,
        prefilter: CandidatePrefilter,
    ) -> list[CandidatePool]:
        """Host filtering for one proposal, through ``prefilter``."""
        return filter_hosts(
            self.topo, self.alloc, job, co_runners, self.profiles,
            report=report,
            prefilter=prefilter,
        )

    def _machine_table(
        self, machine: str
    ) -> tuple[int, dict[str, int], tuple[str, ...]]:
        """Shape id and local GPU index tables of ``machine``."""
        table = self._machine_tables.get(machine)
        if table is None:
            shape = self.topo.machine_shape(machine)
            shape_id = self._shape_ids.setdefault(shape, len(self._shape_ids))
            names = tuple(self.topo.gpus(machine=machine))
            table = (shape_id, {g: i for i, g in enumerate(names)}, names)
            self._machine_tables[machine] = table
        return table

    def _pool_key(
        self,
        job: Job,
        pool: CandidatePool,
        co_runners: Mapping[str, tuple[Job, frozenset[str]]],
    ) -> tuple | None:
        """Machine-canonical name of everything :meth:`_solve_pool`
        reads for a single-machine pool, or ``None`` when the pool is
        solved directly.

        The job's placement fields, the machine's shape id (equal
        shapes are identical up to the name prefix, see
        :meth:`TopologyGraph.machine_shape`), its health, the local
        indices of the pool's GPUs, and — in sorted job-id order, the
        order the Eq. 4 terms are summed in — each co-runner's local
        GPU indices, model, batch size and GPU count, with the job
        itself as a ``self`` marker.  Spanning pools, pools short of
        the machine's whole free set and machines hosting a co-runner
        that also holds GPUs elsewhere (its bus footprint leaves the
        machine) get no key.  DESIGN.md §9 argues exactness.
        """
        if len(pool.machines) != 1:
            return None
        machine = pool.machines[0]
        alloc = self.alloc
        if len(pool.gpus) != alloc.free_count(machine):
            return None
        shape_id, index, _ = self._machine_table(machine)
        residents = []
        for job_id in sorted(alloc.jobs_on_machine(machine)):
            entry = co_runners.get(job_id)
            if entry is None:
                continue
            if job_id == job.job_id:
                residents.append(_SELF)
                continue
            other, gpus = entry
            try:
                local = tuple(sorted([index[g] for g in gpus]))
            except KeyError:
                return None
            residents.append(
                (local, other.model, other.batch_size, other.num_gpus)
            )
        return (
            self._job_fields(job),
            shape_id,
            alloc.is_machine_up(machine),
            tuple([index[g] for g in pool.gpus]),
            tuple(residents),
        )

    def _solve(
        self,
        job: Job,
        jobgraph: JobGraph,
        pool: CandidatePool,
        co_runners: Mapping[str, tuple[Job, frozenset[str]]],
    ) -> PlacementSolution | None:
        """:meth:`_solve_pool` through the pool-solve cache.

        Entries hold the mapping as ``(task, local index)`` pairs plus
        the metrics and P2P flag; a hit rebuilds the solution on this
        pool's machine.  Keys name the whole input (see
        :meth:`_pool_key`), so entries never go stale.
        """
        key = self._pool_key(job, pool, co_runners)
        if key is None:
            return self._solve_pool(job, jobgraph, pool, co_runners)
        cache = self._pool_solves
        entry = cache.get(key)
        if entry is None:
            solution = self._solve_pool(job, jobgraph, pool, co_runners)
            value = None
            if solution is not None:
                index = self._machine_table(pool.machines[0])[1]
                value = (
                    tuple([(t, index[g]) for t, g in solution.task_mapping.items()]),
                    tuple([index[g] for g in solution.gpus]),
                    solution.metrics,
                    solution.p2p,
                )
            cache[key] = (self._proposals, value)
            if len(cache) > self.POOL_SOLVES_MAX:
                cache.popitem(last=False)
            return solution
        stamp, value = entry
        if stamp == self._proposals:
            self.pool_stats.hits_in_proposal += 1
        else:
            self.pool_stats.hits_across += 1
            cache[key] = (self._proposals, value)
        cache.move_to_end(key)
        if value is None:
            return None
        pairs, gpus, metrics, p2p = value
        names = self._machine_table(pool.machines[0])[2]
        return PlacementSolution(
            job_id=job.job_id,
            gpus=tuple([names[i] for i in gpus]),
            task_mapping={t: names[i] for t, i in pairs},
            metrics=metrics,
            pool=pool,
            p2p=p2p,
        )

    def _solve_pool(
        self,
        job: Job,
        jobgraph: JobGraph,
        pool: CandidatePool,
        co_runners: Mapping[str, tuple[Job, frozenset[str]]],
    ) -> PlacementSolution | None:
        if job.anti_collocation:
            mapping = self._anti_collocation_mapping(job, pool)
            if mapping is None:
                return None
        else:
            try:
                mapping = drb_map(
                    self.topo,
                    self.alloc,
                    job,
                    jobgraph,
                    pool.gpus,
                    co_runners,
                    self.params,
                    self.interference,
                )
            except ValueError:
                return None
        gpus = tuple(sorted(mapping.values()))
        p2p = all(
            self.topo.p2p_connected(a, b)
            for i, a in enumerate(gpus)
            for b in gpus[i + 1 :]
        )
        metrics = evaluate_solution(
            self.topo,
            self.alloc,
            job,
            gpus,
            co_runners,
            self.params,
            self.interference,
        )
        return PlacementSolution(
            job_id=job.job_id,
            gpus=gpus,
            task_mapping=dict(mapping),
            metrics=metrics,
            pool=pool,
            p2p=p2p,
        )

    def _anti_collocation_mapping(
        self, job: Job, pool: CandidatePool
    ) -> dict[int, str] | None:
        """Round-robin tasks over distinct domains (sockets/machines)."""
        domain_of = (
            self.topo.machine_of if pool.spans_machines else self.topo.socket_of
        )
        by_domain: dict[str, list[str]] = {}
        for g in pool.gpus:
            by_domain.setdefault(domain_of(g), []).append(g)
        domains = sorted(by_domain)
        if len(domains) < job.num_gpus:
            return None
        return {
            task: by_domain[domains[task]][0] for task in range(job.num_gpus)
        }

    # ------------------------------------------------------------------
    def score_allocation(
        self,
        job: Job,
        gpus: tuple[str, ...],
        co_runners: Mapping[str, tuple[Job, frozenset[str]]] | None = None,
    ) -> PlacementSolution:
        """Score an externally chosen allocation (used by the greedy
        baselines so their decisions carry the same metrics)."""
        co_runners = co_runners or {}
        gpus = tuple(sorted(gpus))
        machines = tuple(sorted({self.topo.machine_of(g) for g in gpus}))
        p2p = all(
            self.topo.p2p_connected(a, b)
            for i, a in enumerate(gpus)
            for b in gpus[i + 1 :]
        )
        metrics = evaluate_solution(
            self.topo,
            self.alloc,
            job,
            gpus,
            co_runners,
            self.params,
            self.interference,
        )
        return PlacementSolution(
            job_id=job.job_id,
            gpus=gpus,
            task_mapping={i: g for i, g in enumerate(gpus)},
            metrics=metrics,
            pool=CandidatePool(machines=machines, gpus=gpus),
            p2p=p2p,
        )

    def prefilter_stats(self) -> dict:
        """Prefilter hit counters."""
        return self.prefilter.stats.as_dict()

    def p2p_attainable(self, job: Job) -> bool:
        """Whether any allocation on this hardware could give the job
        all-pairs P2P (ignoring current occupancy).  TOPO-AWARE-P must
        not postpone forever chasing an impossible allocation."""
        if not job.requires_p2p:
            return True
        sizes = self.topo.p2p_island_sizes()
        return bool(sizes) and sizes[0] >= job.num_gpus

    def enforce(self, solution: PlacementSolution) -> None:
        """Commit a proposed placement to the allocation state."""
        self.alloc.allocate(solution.job_id, solution.gpus)
