"""Solo-execution performance model.

Given a topology, a job and a concrete GPU allocation this computes
per-iteration compute and communication time and total execution time
(absent interference; co-location effects live in
:mod:`repro.perf.interference`).

Communication is modelled as a synchronous all-reduce: its cost per
iteration is ``allreduce_scale(n) * comm_volume / bw_eff`` where
``bw_eff`` is the *worst* pair bandwidth among the allocated GPUs
(a synchronous collective advances at the pace of its slowest link),
with the no-P2P penalty applied to pairs whose traffic is staged
through host memory.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.perf.calibration import Calibration, DEFAULT_CALIBRATION, MachineKind
from repro.topology.graph import TopologyGraph
from repro.topology.links import LinkType
from repro.workload.job import Job


class Placement(enum.Enum):
    """Canonical placement strategies of Section 3."""

    PACK = "pack"
    SPREAD = "spread"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


def allreduce_scale(n_gpus: int) -> float:
    """Relative all-reduce cost vs the 2-GPU case: ``2(n-1)/n``, 0 for n=1."""
    if n_gpus < 1:
        raise ValueError("n_gpus must be >= 1")
    if n_gpus == 1:
        return 0.0
    return 2.0 * (n_gpus - 1) / n_gpus


def pack_gpus(
    topo: TopologyGraph, n: int, free: Iterable[str] | None = None
) -> list[str]:
    """Pick ``n`` free GPUs minimising mutual distance (pack strategy).

    Greedy: group candidates by socket, fill whole sockets of the same
    machine first (machines ordered by how completely they can host the
    job), then spill to the nearest sockets.  Without ``free`` the
    groups are the graph's per-machine GPU lists (each in GPU-index
    order, as grouping the whole list would give), read once per
    machine.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if free is None:
        by_machine = {m: topo.gpus(machine=m) for m in topo.machines()}
    else:
        by_machine = {}
        for g in free:
            by_machine.setdefault(topo.machine_of(g), []).append(g)
    available = sum(map(len, by_machine.values()))
    if available < n:
        raise ValueError(f"need {n} GPUs, only {available} available")
    # prefer machines that can host the whole job, then larger pools
    machines = sorted(
        by_machine,
        key=lambda m: (len(by_machine[m]) < n, -len(by_machine[m]), m),
    )
    chosen: list[str] = []
    for m in machines:
        pool = sorted(by_machine[m], key=topo.gpu_index_of)
        by_socket: dict[str, list[str]] = {}
        for g in pool:
            by_socket.setdefault(topo.socket_of(g), []).append(g)
        # fullest sockets first to keep the job tight
        for s in sorted(by_socket, key=lambda s: (-len(by_socket[s]), s)):
            for g in by_socket[s]:
                chosen.append(g)
                if len(chosen) == n:
                    return chosen
    return chosen  # pragma: no cover - loop always returns once len==n


def spread_gpus(
    topo: TopologyGraph, n: int, free: Iterable[str] | None = None
) -> list[str]:
    """Pick ``n`` free GPUs round-robin across sockets (spread strategy)."""
    candidates = list(free) if free is not None else topo.gpus()
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(candidates) < n:
        raise ValueError(f"need {n} GPUs, only {len(candidates)} available")
    by_socket: dict[str, list[str]] = {}
    for g in sorted(candidates, key=lambda g: (topo.machine_of(g), topo.gpu_index_of(g))):
        by_socket.setdefault(topo.socket_of(g), []).append(g)
    sockets = sorted(by_socket)
    chosen: list[str] = []
    i = 0
    while len(chosen) < n:
        progressed = False
        for s in sockets:
            if i < len(by_socket[s]):
                chosen.append(by_socket[s][i])
                progressed = True
                if len(chosen) == n:
                    return chosen
        if not progressed:  # pragma: no cover - guarded by the len check
            break
        i += 1
    return chosen


@dataclass(frozen=True)
class IterationBreakdown:
    """Per-iteration time split (drives the Figure 3 reproduction)."""

    compute_s: float
    comm_s: float
    p2p: bool

    @property
    def total_s(self) -> float:
        return self.compute_s + self.comm_s

    @property
    def comm_fraction(self) -> float:
        total = self.total_s
        return self.comm_s / total if total > 0 else 0.0


#: bound on :meth:`PerformanceModel.iteration_breakdown`'s memo; the
#: oldest entry goes first, which only ever forces a recompute
SOLO_MEMO_MAX = 4096


class PerformanceModel:
    """Solo execution-time model over a topology."""

    def __init__(
        self,
        topo: TopologyGraph,
        calibration: Calibration = DEFAULT_CALIBRATION,
        machine_kind: MachineKind | None = None,
    ) -> None:
        self.topo = topo
        self.calibration = calibration
        self._machine_kind_override = machine_kind
        #: machine kind per shape id: the kind reads only the machine's
        #: GPU edges, so a mutation that changes them changes the id
        self._kind_cache: dict[int, MachineKind] = {}
        #: single-machine breakdowns keyed by (model, batch size,
        #: communication pattern, shape id, relative GPU names in task
        #: order); per instance, so models of different calibration or
        #: machine kind never share an entry
        self._solo: dict[tuple, IterationBreakdown] = {}

    # ------------------------------------------------------------------
    # machine classification
    # ------------------------------------------------------------------
    def machine_kind(self, machine: str) -> MachineKind:
        """NVLink or PCIe machine, inferred from GPU uplink technology."""
        if self._machine_kind_override is not None:
            return self._machine_kind_override
        shape_id = self.topo.machine_shape_id(machine)
        cached = self._kind_cache.get(shape_id)
        if cached is not None:
            return cached
        kind = MachineKind.PCIE_K80
        for g in self.topo.gpus(machine=machine):
            for other in self.topo.neighbors(g):
                if self.topo.edge(g, other).spec.link_type is LinkType.NVLINK:
                    kind = MachineKind.NVLINK_P100
                    break
            if kind is MachineKind.NVLINK_P100:
                break
        self._kind_cache[shape_id] = kind
        return kind

    # ------------------------------------------------------------------
    # pairwise communication
    # ------------------------------------------------------------------
    def is_p2p(self, gpu_a: str, gpu_b: str) -> bool:
        """True when the pair can exchange peer-to-peer.

        Delegates to :meth:`TopologyGraph.p2p_connected`: P2P works
        along NVLink edges or across a shared PCIe switch; paths through
        a socket, machine or the network are staged via host memory.
        """
        return self.topo.p2p_connected(gpu_a, gpu_b)

    def pair_bandwidth(self, gpu_a: str, gpu_b: str) -> float:
        """Effective GB/s between two GPUs (bottleneck + no-P2P penalty)."""
        bw = self.topo.bottleneck_bandwidth(gpu_a, gpu_b)
        if not self.is_p2p(gpu_a, gpu_b):
            bw *= self.calibration.no_p2p_penalty
        return bw

    def worst_pair_bandwidth(self, gpus: Sequence[str]) -> float:
        pairs = itertools.combinations(sorted(gpus), 2)
        return min((self.pair_bandwidth(a, b) for a, b in pairs), default=float("inf"))

    # ------------------------------------------------------------------
    # iteration / execution time
    # ------------------------------------------------------------------
    def iteration_breakdown(self, job: Job, gpus: Sequence[str]) -> IterationBreakdown:
        """Per-iteration compute/communication split on an allocation.

        ``gpus`` is ordered by task index; for data-parallel jobs the
        order is irrelevant (synchronous all-reduce at the worst pair's
        pace), but model-parallel chains/rings are charged with the
        mapping-aware collective models so the task order DRB chose
        actually matters.
        """
        gpus = list(gpus)
        if len(gpus) != job.num_gpus:
            raise ValueError(
                f"{job.job_id}: allocation has {len(gpus)} GPUs, job wants {job.num_gpus}"
            )
        # on one machine the answer depends on the job's fields (enums
        # enter by value, which hashes in C) and the GPUs' places in the
        # machine's shape alone
        local = self.topo.machine_relative(gpus)
        if local is None:
            return self._breakdown(job, gpus)
        key = (
            job.model._value_, job.batch_size, job.comm_pattern._value_, *local
        )
        memo = self._solo
        cached = memo.get(key)
        if cached is None:
            cached = self._breakdown(job, gpus)
            if len(memo) >= SOLO_MEMO_MAX:
                del memo[next(iter(memo))]
            memo[key] = cached
        return cached

    def _breakdown(self, job: Job, gpus: list[str]) -> IterationBreakdown:
        """:meth:`iteration_breakdown` of a checked allocation, uncached."""
        from repro.perf import collectives
        from repro.workload.job import CommPattern
        from repro.workload.jobgraph import MODEL_PARALLEL_WEIGHT_FACTOR

        machine = self.topo.machine_of(gpus[0])
        kind = self.machine_kind(machine)
        compute = self.calibration.compute_time(job.model, job.batch_size, kind)
        if len(gpus) == 1:
            return IterationBreakdown(compute_s=compute, comm_s=0.0, p2p=True)
        volume = self.calibration.model(job.model).comm_volume_gb
        penalty = self.calibration.no_p2p_penalty
        if job.comm_pattern is CommPattern.MODEL_PARALLEL_CHAIN:
            comm = collectives.chain_pipeline_time(
                self.topo, gpus, volume * MODEL_PARALLEL_WEIGHT_FACTOR, penalty
            )
        elif job.comm_pattern is CommPattern.MODEL_PARALLEL_RING:
            comm = collectives.ring_allreduce_time(
                self.topo, gpus, volume * MODEL_PARALLEL_WEIGHT_FACTOR, penalty
            )
        else:
            bw = self.worst_pair_bandwidth(gpus)
            comm = allreduce_scale(len(gpus)) * volume / bw
        p2p = all(self.is_p2p(a, b) for a, b in itertools.combinations(sorted(gpus), 2))
        return IterationBreakdown(compute_s=compute, comm_s=comm, p2p=p2p)

    def iteration_time(self, job: Job, gpus: Sequence[str]) -> float:
        return self.iteration_breakdown(job, gpus).total_s

    def solo_exec_time(self, job: Job, gpus: Sequence[str]) -> float:
        """Total solo run time of ``job`` on allocation ``gpus`` (seconds)."""
        return job.iterations * self.iteration_time(job, gpus)

    def ideal_exec_time(self, job: Job) -> float:
        """Best achievable run time on an *empty* topology (pack placement).

        Slowdown metrics (Figures 8e/9e/10/11) compare against this.
        """
        gpus = self.placement_gpus(job, Placement.PACK)
        return self.solo_exec_time(job, gpus)

    def placement_gpus(self, job: Job, placement: Placement) -> list[str]:
        """Canonical pack/spread allocation for characterization runs.

        The whole-topology pack depends only on the graph and the GPU
        count, so it is memoized per count in the graph's caches (which
        every graph mutation clears); callers get a fresh list.  A count
        larger than the topology is not memoized and raises
        ``ValueError`` on every call.
        """
        if placement is Placement.SPREAD:
            return spread_gpus(self.topo, job.num_gpus)
        memo = self.topo.pack_memo
        cached = memo.get(job.num_gpus)
        if cached is None:
            cached = tuple(pack_gpus(self.topo, job.num_gpus))
            memo[job.num_gpus] = cached
        return list(cached)
