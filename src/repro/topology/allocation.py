"""Cluster allocation bookkeeping.

:class:`AllocationState` tracks which GPUs are held by which job, and
derives the quantities the utility function and the interference model
need: free GPUs per machine/socket, socket fragmentation (Eq. 5), the
set of bus links a placement occupies, and link overlap between jobs.

GPUs are never shared between jobs (the paper assumes private GPU
access; only buses are shared).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from collections import OrderedDict
from typing import Iterable, Iterator, Mapping

from repro.topology.graph import NodeKind, TopologyGraph


class AllocationError(RuntimeError):
    """Raised on conflicting or unknown allocations."""


#: bound on the GPU-set -> bus-links memo; old entries are evicted in
#: LRU order so 10k-job churn cannot grow the cache without limit.
LINKS_CACHE_MAX = 4096


def _free_fraction(gpus: tuple[str, ...], owner: Mapping[str, str]) -> float:
    """Share of ``gpus`` that no job owns (0.0 for none)."""
    if not gpus:
        return 0.0
    return sum([g not in owner for g in gpus]) / len(gpus)


class AllocationState:
    """Mutable view of which job owns which GPUs on a topology.

    Every state mutation (allocate / release / machine down / machine
    up) bumps :attr:`version`.  Its readers are the placement memo,
    which counts an epoch rotation when it changes, and the ``/state``
    snapshot's ``allocation_epoch``.

    :attr:`digest` names the state itself rather than the epoch: the
    XOR of ``hash((job_id, gpu))`` over every owned GPU and of
    ``hash(("down", machine))`` over every failed machine, updated in
    O(GPUs touched) by each mutator.  Two histories that reach the
    same ownership and health give the same digest, which is what lets
    the placement memo in :class:`repro.core.placement.PlacementEngine`
    replay answers across epochs.  String hashes are salted per
    process, so the digest is meaningful only inside the process that
    computed it and is never persisted.
    """

    def __init__(self, topo: TopologyGraph) -> None:
        self.topo = topo
        self.version = 0
        self._gpu_owner: dict[str, str] = {}
        self._job_gpus: dict[str, frozenset[str]] = {}
        self._all_gpus = tuple(topo.gpus())
        self._links_cache: OrderedDict[
            frozenset[str], frozenset[tuple[str, str]]
        ] = OrderedDict()
        self._share_cache: OrderedDict[
            tuple[frozenset[str], frozenset[str]], float
        ] = OrderedDict()
        # O(1) per-machine free-count bookkeeping for large clusters
        self._free_count: dict[str, int] = {
            m: len(topo.gpus(machine=m)) for m in topo.machines()
        }
        self._jobs_by_machine: dict[str, set[str]] = {m: set() for m in topo.machines()}
        self._down_machines: set[str] = set()
        #: machine -> its free GPUs, built on first read and dropped by
        #: every mutation that touches the machine (see :meth:`offer`)
        self._offers: dict[str, tuple[str, ...]] = {}
        #: machine -> the candidate pool host filtering built from its
        #: offer; filled and checked against :meth:`offer` by
        #: :func:`repro.core.constraints.filter_hosts`
        self.pool_memo: dict[str, object] = {}
        self._sockets: dict[str, tuple[str, ...]] | None = None
        self.digest = 0
        # maintained aggregates for O(1) capacity queries at fleet scale:
        # the healthy-machine free total and a capacity-bucket
        # index free-count -> sorted machine names (healthy machines
        # only) that lets the candidate prefilter walk hosts in exactly
        # the (free count asc, name asc) order the exhaustive scan sorts
        # them into — without visiting machines that cannot qualify.
        self._total_free: int = len(self._all_gpus)
        self._buckets: dict[int, list[str]] = {}
        for m, c in self._free_count.items():
            self._buckets.setdefault(c, []).append(m)
        for lst in self._buckets.values():
            lst.sort()

    # ------------------------------------------------------------------
    # capacity-bucket maintenance
    # ------------------------------------------------------------------
    def _bucket_discard(self, machine: str, count: int) -> None:
        lst = self._buckets.get(count)
        if lst is None:
            return
        i = bisect_left(lst, machine)
        if i < len(lst) and lst[i] == machine:
            del lst[i]
            if not lst:
                del self._buckets[count]

    def _bucket_add(self, machine: str, count: int) -> None:
        insort(self._buckets.setdefault(count, []), machine)

    def _apply_free_delta(self, machine: str, delta: int) -> None:
        old = self._free_count[machine]
        new = old + delta
        self._free_count[machine] = new
        if machine not in self._down_machines:
            self._total_free += delta
            self._bucket_discard(machine, old)
            self._bucket_add(machine, new)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def allocate(self, job_id: str, gpus: Iterable[str]) -> None:
        gpu_set = frozenset(gpus)
        if not gpu_set:
            raise AllocationError(f"empty allocation for job {job_id!r}")
        if job_id in self._job_gpus:
            raise AllocationError(f"job {job_id!r} already has an allocation")
        for g in gpu_set:
            if self.topo.node(g).kind is not NodeKind.GPU:
                raise AllocationError(f"{g!r} is not a GPU")
            owner = self._gpu_owner.get(g)
            if owner is not None:
                raise AllocationError(f"GPU {g!r} already held by job {owner!r}")
        digest = self.digest
        for g in gpu_set:
            self._gpu_owner[g] = job_id
            digest ^= hash((job_id, g))
        self.digest = digest
        self._job_gpus[job_id] = gpu_set
        taken: dict[str, int] = {}
        for g in gpu_set:
            m = self.topo.machine_of(g)
            taken[m] = taken.get(m, 0) + 1
        for m, n in taken.items():
            self._jobs_by_machine[m].add(job_id)
            self._offers.pop(m, None)
            self._apply_free_delta(m, -n)
        self.version += 1

    def release(self, job_id: str) -> frozenset[str]:
        try:
            gpus = self._job_gpus.pop(job_id)
        except KeyError:
            raise AllocationError(f"job {job_id!r} has no allocation") from None
        freed: dict[str, int] = {}
        digest = self.digest
        for g in gpus:
            del self._gpu_owner[g]
            digest ^= hash((job_id, g))
            m = self.topo.machine_of(g)
            freed[m] = freed.get(m, 0) + 1
        self.digest = digest
        for m, n in freed.items():
            self._jobs_by_machine[m].discard(job_id)
            self._offers.pop(m, None)
            self._apply_free_delta(m, n)
        self.version += 1
        return gpus

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def jobs(self) -> dict[str, frozenset[str]]:
        return dict(self._job_gpus)

    def gpus_of(self, job_id: str) -> frozenset[str]:
        try:
            return self._job_gpus[job_id]
        except KeyError:
            raise AllocationError(f"job {job_id!r} has no allocation") from None

    def owner_of(self, gpu: str) -> str | None:
        return self._gpu_owner.get(gpu)

    def is_free(self, gpu: str) -> bool:
        return gpu not in self._gpu_owner

    def free_gpus(self, machine: str | None = None, socket: str | None = None) -> list[str]:
        if machine is not None and machine in self._down_machines:
            return []
        if socket is not None and self.topo.machine_of(socket) in self._down_machines:
            return []
        pool = self.topo.gpus(machine=machine, socket=socket)
        if machine is None and self._down_machines:
            pool = [
                g for g in pool
                if self.topo.machine_of(g) not in self._down_machines
            ]
        return [g for g in pool if g not in self._gpu_owner]

    def offer(self, machine: str) -> tuple[str, ...]:
        """:meth:`free_gpus` of ``machine`` as a tuple (``()`` while the
        machine is down).

        Kept per machine until :meth:`allocate`, :meth:`release`,
        :meth:`set_machine_down` or :meth:`set_machine_up` touches the
        machine, so the same tuple object comes back while the machine
        is unchanged: host filtering reuses the candidate pool it built
        on an offer for as long as that offer is the one returned here.
        """
        offer = self._offers.get(machine)
        if offer is None:
            offer = self._offers[machine] = tuple(self.free_gpus(machine=machine))
        return offer

    def free_count(self, machine: str) -> int:
        """Free GPUs on a machine, O(1) (hot path of host filtering).

        A failed machine offers no capacity until it recovers.
        """
        if machine in self._down_machines:
            return 0
        return self._free_count[machine]

    def max_free_count(self) -> int:
        """Largest per-machine free-GPU count.

        Schedulers use it to skip queued jobs that cannot fit anywhere
        without probing every machine per job.  O(distinct free counts),
        i.e. bounded by GPUs-per-machine — not O(machines) — thanks to
        the maintained capacity-bucket index.
        """
        return max(self._buckets, default=0)

    def total_free_count(self) -> int:
        """Free GPUs across all healthy machines, O(1) (maintained).

        The capacity ceiling for machine-spanning placements: a job
        needing more GPUs than this cannot fit even when allowed to
        span machines.
        """
        return self._total_free

    def eligible_machine_count(self, min_free: int) -> int:
        """How many healthy machines have ``>= min_free`` free GPUs.

        O(distinct free counts); the prefilter uses it to report the
        exact same free-GPU prune tally the exhaustive scan would have,
        without visiting the pruned machines.
        """
        return sum(
            len(lst) for c, lst in self._buckets.items() if c >= min_free
        )

    def candidate_machines(self, min_free: int) -> Iterator[str]:
        """Healthy machines with ``>= min_free`` free GPUs, in the
        exhaustive scan's survivor order: (free count asc, name asc).

        This is the capacity-dominance iterator behind the top-k
        prefilter: because host filtering sorts eligible machines by
        exactly this key before truncating to the engine's pool budget,
        probing candidates in this order and stopping once the budget
        is full provably yields the same pool list as scanning every
        machine.  The iterator is lazy — callers that stop early never
        pay for the tail.  Do not mutate the allocation mid-iteration.
        """
        for c in sorted(k for k in self._buckets if k >= min_free):
            yield from self._buckets[c]

    def machines_by_free_desc(self) -> Iterator[tuple[int, str]]:
        """Healthy machines with free GPUs, most-free first, ties by
        name — the machine-spanning pool's greedy accumulation order.

        Yields ``(free_count, machine)`` pairs lazily so the spanning
        path can stop as soon as it has gathered enough GPUs.
        """
        for c in sorted((k for k in self._buckets if k > 0), reverse=True):
            for m in self._buckets[c]:
                yield c, m

    # ------------------------------------------------------------------
    # machine health (failure injection)
    # ------------------------------------------------------------------
    def set_machine_down(self, machine: str) -> list[str]:
        """Mark a machine failed; returns the jobs it was running.

        The caller (the simulator) is responsible for releasing and
        resubmitting those jobs.  Marking an already-down machine down
        again (a repeated failure heartbeat) changes nothing, so it
        does not bump the epoch — derived caches stay warm.
        """
        if machine not in self._free_count:
            raise AllocationError(f"unknown machine {machine!r}")
        if machine not in self._down_machines:
            count = self._free_count[machine]
            self._bucket_discard(machine, count)
            self._total_free -= count
            self._down_machines.add(machine)
            self._offers.pop(machine, None)
            self.digest ^= hash(("down", machine))
            self.version += 1
        return sorted(self._jobs_by_machine[machine])

    def set_machine_up(self, machine: str) -> None:
        """Bring a machine (back) into service.

        A liveness heartbeat for a machine that is already up is a
        no-op and must not bump the epoch: a long-running daemon
        re-asserting machine health every few seconds would otherwise
        invalidate the placement memo without changing the free pool.
        """
        if machine not in self._free_count:
            raise AllocationError(f"unknown machine {machine!r}")
        if machine in self._down_machines:
            self._down_machines.discard(machine)
            self._offers.pop(machine, None)
            self.digest ^= hash(("down", machine))
            count = self._free_count[machine]
            self._bucket_add(machine, count)
            self._total_free += count
            self.version += 1

    def is_machine_up(self, machine: str) -> bool:
        return machine not in self._down_machines

    def jobs_on_machine(self, machine: str) -> frozenset[str]:
        """Jobs currently holding GPUs on ``machine``, O(1)."""
        return frozenset(self._jobs_by_machine[machine])

    def busy_count(self) -> int:
        """Allocated GPUs cluster-wide, O(1) (hot path of the
        per-round telemetry signals)."""
        return len(self._gpu_owner)

    def utilization(self) -> float:
        """Fraction of all GPUs currently allocated."""
        if not self._all_gpus:
            return 0.0
        return len(self._gpu_owner) / len(self._all_gpus)

    # ------------------------------------------------------------------
    # fragmentation (Eq. 5)
    # ------------------------------------------------------------------
    def _socket_table(self) -> dict[str, tuple[str, ...]]:
        """Socket -> its GPUs, in :meth:`TopologyGraph.sockets` order;
        built on first use (the topology is fixed for the lifetime of
        an allocation state, like ``_all_gpus``)."""
        table = self._sockets
        if table is None:
            topo = self.topo
            table = self._sockets = {
                s: tuple(topo.gpus(socket=s)) for s in topo.sockets()
            }
        return table

    def socket_free_fraction(self, socket: str) -> float:
        return _free_fraction(
            self._socket_table().get(socket, ()), self._gpu_owner
        )

    def socket_free_fractions(self) -> dict[str, float]:
        """:meth:`socket_free_fraction` of every socket, for a sweep
        that reads many of them (see :meth:`fragmentation`)."""
        owner = self._gpu_owner
        return {
            s: _free_fraction(gpus, owner)
            for s, gpus in self._socket_table().items()
        }

    def fragmentation(
        self,
        machine: str | None = None,
        fractions: Mapping[str, float] | None = None,
    ) -> float:
        """Average per-socket free-GPU fraction (Eq. 5's omega).

        ``fractions`` (optional) is a :meth:`socket_free_fractions`
        snapshot of the current allocation, so a sweep over every
        machine and then the cluster (the time-series sample) counts
        each socket once instead of once per call.
        """
        sockets = self.topo.sockets(machine=machine)
        if not sockets:
            return 0.0
        if fractions is None:
            fractions = self.socket_free_fractions()
        return sum([fractions[s] for s in sockets]) / len(sockets)

    # ------------------------------------------------------------------
    # link usage / sharing
    # ------------------------------------------------------------------
    def links_used(self, gpus: Iterable[str]) -> frozenset[tuple[str, str]]:
        """Bus edges a job with this GPU set occupies.

        The union of edges along shortest paths between all GPU pairs
        (peer traffic) plus the path from each GPU to its socket (host
        traffic: input pipeline, parameter staging without P2P), plus a
        ``("dram", socket)`` pseudo-link for every touched socket --
        co-located jobs contend on the socket's memory bandwidth even
        when their bus links are disjoint (the Power8 counters the
        paper samples with Perfmon2 measure exactly this channel).
        """
        gpu_set = frozenset(gpus)
        cached = self._links_cache.get(gpu_set)
        if cached is not None:
            self._links_cache.move_to_end(gpu_set)
            return cached
        edges: set[tuple[str, str]] = set()
        ordered = sorted(gpu_set)
        for a, b in itertools.combinations(ordered, 2):
            for edge in self.topo.path_edges(a, b):
                edges.add(edge.key)
        for g in ordered:
            socket = self.topo.socket_of(g)
            for edge in self.topo.path_edges(g, socket):
                edges.add(edge.key)
            edges.add(("dram", socket))
        result = frozenset(edges)
        self._links_cache[gpu_set] = result
        if len(self._links_cache) > LINKS_CACHE_MAX:
            self._links_cache.popitem(last=False)
        return result

    def link_sharing_factor(
        self, gpus_a: Iterable[str], gpus_b: Iterable[str]
    ) -> float:
        """How much of job A's bus footprint job B touches, in [0, 1].

        0 means fully disjoint buses (no direct contention channel);
        1 means every link A uses is also used by B.  Used to scale the
        profile-table interference between co-located jobs.

        Pure in the topology (bus footprints never change while the
        graph lives), so the pair result is memoised: interference
        evaluation revisits the same co-runner pairs every round.
        """
        key = (frozenset(gpus_a), frozenset(gpus_b))
        cached = self._share_cache.get(key)
        if cached is not None:
            self._share_cache.move_to_end(key)
            return cached
        links_a = self.links_used(key[0])
        if not links_a:
            result = 0.0
        else:
            shared = links_a & self.links_used(key[1])
            result = len(shared) / len(links_a)
        self._share_cache[key] = result
        if len(self._share_cache) > LINKS_CACHE_MAX:
            self._share_cache.popitem(last=False)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AllocationState(jobs={len(self._job_gpus)}, "
            f"busy={len(self._gpu_owner)}/{len(self._all_gpus)})"
        )
