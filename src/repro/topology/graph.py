"""Hierarchical physical topology graph (paper Section 4.1.2, Figure 7).

A :class:`TopologyGraph` holds the levels network -> machine -> socket
-> (optional switches) -> GPU as vertices, plus direct GPU-to-GPU edges
for NVLink connections.  Every edge carries

* ``weight`` -- the qualitative distance used by the communication-cost
  metric (Eq. 3); shortest-path sums over these weights define how
  "far" two GPUs are, and
* ``spec`` -- a :class:`~repro.topology.links.LinkSpec` with the link
  technology and bandwidth, used by the performance/interference models.

The graph is undirected.  Shortest-path distances and widest-path
(bottleneck-bandwidth) queries are computed with Dijkstra variants and
cached per source; any mutation invalidates the caches (once per build
inside :meth:`TopologyGraph._building`).
"""

from __future__ import annotations

import enum
import heapq
import itertools
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.topology.links import LinkSpec, LinkType


class TopologyError(ValueError):
    """Raised for malformed topology construction or queries."""


#: bound on cached *unscoped* per-source Dijkstra results.  Every
#: cross-machine distance query is served from these, and each one
#: holds a distance for every node in the graph — on a 1k-machine fleet
#: that is ~9k entries per source, so caching one per GPU would grow
#: without limit.  Eviction is LRU and only ever forces a recompute,
#: never a different answer.
DIST_UNSCOPED_CACHE_MAX = 128


class NodeKind(enum.Enum):
    NETWORK = "network"
    MACHINE = "machine"
    SOCKET = "socket"
    SWITCH = "switch"
    GPU = "gpu"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Node:
    """A topology vertex.

    ``machine`` and ``socket`` record the enclosing components (``None``
    above that level); ``gpu_index`` is the machine-local GPU id used by
    enforcement (``CUDA_VISIBLE_DEVICES`` ordering).
    """

    name: str
    kind: NodeKind
    machine: str | None = None
    socket: str | None = None
    gpu_index: int | None = None


@dataclass(frozen=True)
class Edge:
    """An undirected topology edge between ``u`` and ``v``."""

    u: str
    v: str
    weight: float
    spec: LinkSpec

    @property
    def key(self) -> tuple[str, str]:
        """Canonical (sorted) endpoint pair identifying this edge."""
        return (self.u, self.v) if self.u <= self.v else (self.v, self.u)


@dataclass
class _Caches:
    dist: dict[tuple[str, str | None], dict[str, float]] = field(default_factory=dict)
    widest: dict[tuple[str, str | None], dict[str, float]] = field(default_factory=dict)
    paths: dict[tuple[str, str], tuple[str, ...]] = field(default_factory=dict)
    machines: list[str] | None = None
    gpu_lists: dict[tuple[str | None, str | None], list[str]] = field(
        default_factory=dict
    )
    socket_lists: dict[str | None, list[str]] = field(default_factory=dict)
    machine_map: dict[str, str] = field(default_factory=dict)
    socket_map: dict[str, str] = field(default_factory=dict)
    #: LRU order of unscoped entries in ``dist`` (see
    #: :data:`DIST_UNSCOPED_CACHE_MAX`); values are unused.
    dist_unscoped_lru: "OrderedDict[tuple[str, str | None], None]" = field(
        default_factory=OrderedDict
    )
    #: :meth:`TopologyGraph.p2p_island_sizes` results per machine scope
    #: (``None`` = the whole fleet), filled on first use.
    p2p_islands: dict[str | None, tuple[int, ...]] = field(default_factory=dict)
    #: whole-topology pack placements per GPU count, filled on first
    #: use by :meth:`repro.perf.model.PerformanceModel.placement_gpus`.
    pack: dict[int, tuple[str, ...]] = field(default_factory=dict)
    #: per-machine GPU-uplink bandwidth totals, filled on first use by
    #: :func:`repro.core.constraints.machine_bus_capacity`.
    bus_capacity: dict[str, float] = field(default_factory=dict)
    #: Eq. 3 best/worst communication cost per GPU count, filled on
    #: first use by :func:`repro.core.utility.comm_cost_bounds`.
    comm_bounds: dict[int, tuple[float, float]] = field(default_factory=dict)

    def clear(self) -> None:
        self.dist.clear()
        self.widest.clear()
        self.paths.clear()
        self.machines = None
        self.gpu_lists.clear()
        self.socket_lists.clear()
        self.machine_map.clear()
        self.socket_map.clear()
        self.dist_unscoped_lru.clear()
        self.p2p_islands.clear()
        self.pack.clear()
        self.bus_capacity.clear()
        self.comm_bounds.clear()


class _DeferredCaches:
    """Stands in for a graph's caches inside its build scope.

    A mutation's ``clear()`` costs nothing here; the scope clears the
    real caches once on exit.  The first query inside the scope (any
    other attribute read) puts the real caches back, emptied, so every
    later mutation clears at once again and nothing cached mid-build
    outlives a mutation.
    """

    __slots__ = ("_graph", "_caches")

    def __init__(self, graph: "TopologyGraph", caches: _Caches) -> None:
        self._graph = graph
        self._caches = caches

    def clear(self) -> None:
        pass

    def __getattr__(self, name: str):
        caches = self._caches
        caches.clear()
        self._graph._caches = caches
        return getattr(caches, name)


class TopologyGraph:
    """Weighted undirected graph over topology components."""

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self._nodes: dict[str, Node] = {}
        self._adj: dict[str, dict[str, Edge]] = {}
        self._caches = _Caches()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @contextmanager
    def _building(self) -> Iterator[None]:
        """Build scope: mutations inside it skip their cache clear and
        the scope clears once on exit.  Every per-add check still runs.
        Nested scopes are part of the outermost one."""
        caches = self._caches
        if type(caches) is _DeferredCaches:
            yield
            return
        self._caches = _DeferredCaches(self, caches)
        try:
            yield
        finally:
            self._caches = caches
            caches.clear()

    def add_node(
        self,
        name: str,
        kind: NodeKind,
        *,
        machine: str | None = None,
        socket: str | None = None,
        gpu_index: int | None = None,
    ) -> Node:
        if name in self._nodes:
            raise TopologyError(f"duplicate node {name!r}")
        if kind is NodeKind.GPU and gpu_index is None:
            raise TopologyError(f"GPU node {name!r} requires gpu_index")
        node = Node(name, kind, machine=machine, socket=socket, gpu_index=gpu_index)
        self._nodes[name] = node
        self._adj[name] = {}
        self._caches.clear()
        return node

    def add_edge(self, u: str, v: str, weight: float, spec: LinkSpec) -> Edge:
        if u == v:
            raise TopologyError(f"self-loop on {u!r}")
        for endpoint in (u, v):
            if endpoint not in self._nodes:
                raise TopologyError(f"unknown node {endpoint!r}")
        if v in self._adj[u]:
            raise TopologyError(f"duplicate edge {u!r} -- {v!r}")
        if weight <= 0:
            raise TopologyError(f"edge weight must be positive, got {weight}")
        edge = Edge(u, v, float(weight), spec)
        self._adj[u][v] = edge
        self._adj[v][u] = edge
        self._caches.clear()
        return edge

    def merge(self, other: "TopologyGraph") -> None:
        """Copy all nodes and edges of ``other`` into this graph.

        Each edge is inserted at both ends when the walk over
        ``other``'s adjacency first meets it, as :meth:`edges` yields
        it, so every node's adjacency order (which breaks shortest-path
        ties) matches an edge-by-edge copy.  An edge is met first at its
        earlier endpoint: at the later one, it is in the copy already.
        """
        nodes, adj = self._nodes, self._adj
        for node in other._nodes.values():
            if node.name in nodes:
                raise TopologyError(f"node {node.name!r} exists in both graphs")
            nodes[node.name] = node
            adj[node.name] = {}
        for u, nbrs in other._adj.items():
            mine = adj[u]
            for v, edge in nbrs.items():
                if v not in mine:
                    mine[v] = edge
                    adj[v][u] = edge
        self._caches.clear()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    def nodes(self, kind: NodeKind | None = None) -> list[Node]:
        if kind is None:
            return list(self._nodes.values())
        return [n for n in self._nodes.values() if n.kind is kind]

    def edges(self) -> Iterator[Edge]:
        seen: set[tuple[str, str]] = set()
        for adj in self._adj.values():
            for edge in adj.values():
                if edge.key not in seen:
                    seen.add(edge.key)
                    yield edge

    def neighbors(self, name: str) -> list[str]:
        self.node(name)
        return list(self._adj[name])

    def edge(self, u: str, v: str) -> Edge:
        self.node(u)
        try:
            return self._adj[u][v]
        except KeyError:
            raise TopologyError(f"no edge {u!r} -- {v!r}") from None

    def gpus(self, machine: str | None = None, socket: str | None = None) -> list[str]:
        """GPU node names, sorted by (machine, gpu_index).  Cached.

        Single-filter misses (one machine, or one socket) fill the
        cache for *every* machine/socket in one pass over the global
        GPU list instead of rescanning all nodes per component — on a
        1k-machine fleet the per-component scans would otherwise
        dominate first-touch scheduling rounds.  Grouping the global
        (machine, gpu_index)-sorted list preserves each group's order,
        so the lists are identical to a filtered scan.
        """
        key = (machine, socket)
        cached = self._caches.gpu_lists.get(key)
        if cached is not None:
            return list(cached)
        if (machine is None) != (socket is None):
            groups: dict[tuple[str | None, str | None], list[str]] = {}
            field_is_machine = socket is None
            for name in self.gpus():
                node = self._nodes[name]
                group_key = (
                    (node.machine, None) if field_is_machine else (None, node.socket)
                )
                groups.setdefault(group_key, []).append(name)
            for group_key, names in groups.items():
                self._caches.gpu_lists.setdefault(group_key, names)
            return list(self._caches.gpu_lists.setdefault(key, []))
        out = [
            n
            for n in self._nodes.values()
            if n.kind is NodeKind.GPU
            and (machine is None or n.machine == machine)
            and (socket is None or n.socket == socket)
        ]
        out.sort(key=lambda n: (n.machine or "", n.gpu_index or 0))
        names = [n.name for n in out]
        self._caches.gpu_lists[key] = names
        return list(names)

    def machines(self) -> list[str]:
        if self._caches.machines is None:
            self._caches.machines = sorted(
                n.name for n in self._nodes.values() if n.kind is NodeKind.MACHINE
            )
        return list(self._caches.machines)

    def sockets(self, machine: str | None = None) -> list[str]:
        """Socket node names, sorted.  Cached like :meth:`gpus`: a
        per-machine miss groups the global sorted list in one pass and
        fills every machine's entry, so sweeps that ask machine by
        machine (the time-series sample, Eq. 5 scoring) never rescan
        the node table per component.  Grouping a sorted list keeps
        each machine's sockets sorted."""
        cached = self._caches.socket_lists.get(machine)
        if cached is not None:
            return list(cached)
        if machine is not None:
            groups: dict[str | None, list[str]] = {}
            for name in self.sockets():
                groups.setdefault(self._nodes[name].machine, []).append(name)
            for group_machine, names in groups.items():
                self._caches.socket_lists.setdefault(group_machine, names)
            return list(self._caches.socket_lists.setdefault(machine, []))
        names = sorted(
            n.name
            for n in self._nodes.values()
            if n.kind is NodeKind.SOCKET
        )
        self._caches.socket_lists[None] = names
        return list(names)

    def machine_of(self, name: str) -> str:
        cached = self._caches.machine_map.get(name)
        if cached is not None:
            return cached
        node = self.node(name)
        if node.kind is NodeKind.MACHINE:
            result = node.name
        elif node.machine is None:
            raise TopologyError(f"node {name!r} has no machine")
        else:
            result = node.machine
        self._caches.machine_map[name] = result
        return result

    def socket_of(self, name: str) -> str:
        cached = self._caches.socket_map.get(name)
        if cached is not None:
            return cached
        node = self.node(name)
        if node.kind is NodeKind.SOCKET:
            result = node.name
        elif node.socket is None:
            raise TopologyError(f"node {name!r} has no socket")
        else:
            result = node.socket
        self._caches.socket_map[name] = result
        return result

    def machine_shape(self, machine: str) -> tuple:
        """Hashable description of ``machine``'s local subgraph with
        machine-relative names.

        Covers every node reachable from the machine node, its sockets
        or its GPUs through nodes of the same machine: name, kind,
        socket, GPU index and each neighbour in adjacency order with
        the edge's weight and :class:`LinkSpec`.  Names under
        ``"<machine>/"`` lose that prefix and the machine node becomes
        ``""``; any other name (a neighbour outside the machine, or a
        local node named without the prefix) is kept whole.  Two
        machines with equal shapes are therefore identical up to the
        prefix, down to the adjacency order that breaks shortest-path
        ties, and every scoped distance, path and sort of their names
        corresponds.  Not cached: callers keep what they need.
        """
        prefix = machine + "/"

        def rel(name: str | None):
            if name == machine:
                return ""
            if name is not None and name.startswith(prefix):
                return name[len(prefix):]
            return ("=", name)

        seen = {machine}
        frontier = [machine, *self.sockets(machine), *self.gpus(machine)]
        seen.update(frontier)
        for u in frontier:  # grows while iterating: a breadth-first walk
            for v in self._adj[u]:
                if v not in seen and self._nodes[v].machine == machine:
                    seen.add(v)
                    frontier.append(v)
        entries = []
        for name in sorted(seen):
            node = self._nodes[name]
            entries.append((
                rel(name),
                node.kind,
                rel(node.socket),
                node.gpu_index,
                tuple(
                    (rel(v), self._nodes[v].kind, edge.weight, edge.spec)
                    for v, edge in self._adj[name].items()
                ),
            ))
        return tuple(entries)

    def gpu_index_of(self, name: str) -> int:
        node = self.node(name)
        if node.kind is not NodeKind.GPU or node.gpu_index is None:
            raise TopologyError(f"node {name!r} is not a GPU")
        return node.gpu_index

    # ------------------------------------------------------------------
    # shortest paths / widest paths
    # ------------------------------------------------------------------
    def _dijkstra(self, source: str, scope_machine: str | None = None) -> dict[str, float]:
        """Single-source shortest paths, optionally restricted to one
        machine's component (hierarchical weights guarantee intra-machine
        paths never detour through the network, so the scoped search is
        exact for same-machine queries and much cheaper on clusters).

        GPU nodes never *transit* traffic: a path may start or end at a
        GPU but cannot route through one (P100-class NVLink does not
        relay; non-adjacent GPU pairs go through switches/sockets, which
        is exactly what ``nvidia-smi topo`` reports as PIX/PHB/SYS).
        """
        key = (source, scope_machine)
        cached = self._caches.dist.get(key)
        if cached is not None:
            if scope_machine is None and key in self._caches.dist_unscoped_lru:
                self._caches.dist_unscoped_lru.move_to_end(key)
            return cached
        self.node(source)
        dist: dict[str, float] = {source: 0.0}
        heap: list[tuple[float, str]] = [(0.0, source)]
        done: set[str] = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            if u != source and self._nodes[u].kind is NodeKind.GPU:
                continue  # GPUs are endpoints, never relays
            for v, edge in self._adj[u].items():
                if scope_machine is not None:
                    node_v = self._nodes[v]
                    if node_v.machine != scope_machine and node_v.kind is not NodeKind.MACHINE:
                        continue
                    if node_v.kind is NodeKind.MACHINE and v != scope_machine:
                        continue
                nd = d + edge.weight
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        self._caches.dist[key] = dist
        if scope_machine is None:
            # unscoped rows are graph-sized; keep only the hottest few
            # (see DIST_UNSCOPED_CACHE_MAX) so large fleets do not
            # accumulate one full-graph dict per GPU.
            lru = self._caches.dist_unscoped_lru
            lru[key] = None
            lru.move_to_end(key)
            while len(lru) > DIST_UNSCOPED_CACHE_MAX:
                old, _ = lru.popitem(last=False)
                self._caches.dist.pop(old, None)
        return dist

    def _scope_for(self, u: str, v: str) -> str | None:
        """Common machine of two nodes, or None when they differ."""
        mu = self._nodes[u].machine or (
            u if self._nodes[u].kind is NodeKind.MACHINE else None
        )
        mv = self._nodes[v].machine or (
            v if self._nodes[v].kind is NodeKind.MACHINE else None
        )
        return mu if (mu is not None and mu == mv) else None

    def distance(self, u: str, v: str) -> float:
        """Shortest-path distance (sum of qualitative edge weights)."""
        self.node(u)
        self.node(v)
        if u == v:
            return 0.0
        dist = self._dijkstra(u, self._scope_for(u, v))
        try:
            return dist[v]
        except KeyError:
            raise TopologyError(f"{u!r} and {v!r} are disconnected") from None

    def shortest_path(self, u: str, v: str) -> tuple[str, ...]:
        """One shortest path from ``u`` to ``v`` as a node-name tuple."""
        self.node(u)
        self.node(v)
        cached = self._caches.paths.get((u, v))
        if cached is not None:
            return cached
        if u == v:
            return (u,)
        scope = self._scope_for(u, v)
        dist: dict[str, float] = {u: 0.0}
        prev: dict[str, str] = {}
        heap: list[tuple[float, str]] = [(0.0, u)]
        done: set[str] = set()
        while heap:
            d, a = heapq.heappop(heap)
            if a in done:
                continue
            if a == v:
                break
            done.add(a)
            if a != u and self._nodes[a].kind is NodeKind.GPU:
                continue  # GPUs are endpoints, never relays
            for b, edge in self._adj[a].items():
                if scope is not None:
                    node_b = self._nodes[b]
                    if node_b.machine != scope and not (
                        node_b.kind is NodeKind.MACHINE and b == scope
                    ):
                        continue
                nd = d + edge.weight
                if nd < dist.get(b, float("inf")):
                    dist[b] = nd
                    prev[b] = a
                    heapq.heappush(heap, (nd, b))
        if v not in dist:
            raise TopologyError(f"{u!r} and {v!r} are disconnected")
        path = [v]
        while path[-1] != u:
            path.append(prev[path[-1]])
        path.reverse()
        result = tuple(path)
        self._caches.paths[(u, v)] = result
        self._caches.paths[(v, u)] = tuple(reversed(result))
        return result

    def path_edges(self, u: str, v: str) -> list[Edge]:
        """Edges along one shortest path from ``u`` to ``v``."""
        path = self.shortest_path(u, v)
        return [self.edge(a, b) for a, b in itertools.pairwise(path)]

    def bottleneck_bandwidth(self, u: str, v: str) -> float:
        """Maximum-bottleneck ("widest path") bandwidth between two nodes.

        This is the effective peer-to-peer bandwidth the performance
        model assumes for GPU pairs: the path that maximises the minimum
        link bandwidth along it.  Direct NVLink neighbours therefore see
        the NVLink bandwidth, while cross-socket pairs are limited by
        the system bus.
        """
        self.node(u)
        self.node(v)
        if u == v:
            return float("inf")
        scope = self._scope_for(u, v)
        key = (u, scope)
        cached = self._caches.widest.get(key)
        if cached is None:
            cached = self._widest_from(u, scope)
            self._caches.widest[key] = cached
        try:
            return cached[v]
        except KeyError:
            raise TopologyError(f"{u!r} and {v!r} are disconnected") from None

    def _widest_from(self, source: str, scope_machine: str | None = None) -> dict[str, float]:
        self.node(source)
        width: dict[str, float] = {source: float("inf")}
        # max-heap via negation
        heap: list[tuple[float, str]] = [(-float("inf"), source)]
        done: set[str] = set()
        while heap:
            w, u = heapq.heappop(heap)
            w = -w
            if u in done:
                continue
            done.add(u)
            if u != source and self._nodes[u].kind is NodeKind.GPU:
                continue  # GPUs are endpoints, never relays
            for v, edge in self._adj[u].items():
                if scope_machine is not None:
                    node_v = self._nodes[v]
                    if node_v.machine != scope_machine and not (
                        node_v.kind is NodeKind.MACHINE and v == scope_machine
                    ):
                        continue
                nw = min(w, edge.spec.bandwidth_gbs)
                if nw > width.get(v, 0.0):
                    width[v] = nw
                    heapq.heappush(heap, (-nw, v))
        return width

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    def pairwise_distance_sum(self, names: Iterable[str]) -> float:
        """Sum of pairwise shortest-path distances (Eq. 3's ``t``)."""
        names = list(names)
        if len(names) < 2:
            return 0.0
        machines = {self._nodes[n].machine for n in names}
        scope = machines.pop() if len(machines) == 1 else None
        total = 0.0
        for i, u in enumerate(names):
            dist = self._dijkstra(u, scope)
            for v in names[i + 1 :]:
                try:
                    total += dist[v]
                except KeyError:
                    raise TopologyError(
                        f"{u!r} and {v!r} are disconnected"
                    ) from None
        return total

    # ------------------------------------------------------------------
    # validation / export
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise :class:`TopologyError` if broken.

        Invariants: at least one GPU; every GPU names an existing machine
        and socket; the graph is connected; GPU indices are unique per
        machine.
        """
        gpus = self.nodes(NodeKind.GPU)
        if not gpus:
            raise TopologyError("topology has no GPUs")
        seen: set[tuple[str | None, int | None]] = set()
        for gpu in gpus:
            if gpu.machine is None or gpu.machine not in self._nodes:
                raise TopologyError(f"GPU {gpu.name!r} has unknown machine {gpu.machine!r}")
            if gpu.socket is None or gpu.socket not in self._nodes:
                raise TopologyError(f"GPU {gpu.name!r} has unknown socket {gpu.socket!r}")
            key = (gpu.machine, gpu.gpu_index)
            if key in seen:
                raise TopologyError(
                    f"duplicate gpu_index {gpu.gpu_index} on machine {gpu.machine!r}"
                )
            seen.add(key)
        # connectivity: plain BFS over the raw adjacency (the routing
        # rule that GPUs never relay does not apply here -- a switch
        # reachable only through its GPUs is still physically attached)
        start = next(iter(self._nodes))
        reached = {start}
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for v in self._adj[u]:
                if v not in reached:
                    reached.add(v)
                    frontier.append(v)
        if len(reached) != len(self._nodes):
            missing = sorted(set(self._nodes) - reached)
            raise TopologyError(f"disconnected nodes: {missing[:5]}")

    def p2p_connected(self, gpu_a: str, gpu_b: str) -> bool:
        """True when two GPUs can exchange peer-to-peer.

        P2P works along direct NVLink edges or across shared switches;
        once the shortest path climbs to a socket (host bridge), a
        machine or the network, traffic must be staged through host
        memory.
        """
        if gpu_a == gpu_b:
            return True
        path = self.shortest_path(gpu_a, gpu_b)
        return all(
            self.node(name).kind in (NodeKind.GPU, NodeKind.SWITCH)
            for name in path[1:-1]
        )

    def p2p_island_sizes(self, machine: str | None = None) -> list[int]:
        """Sizes of maximal GPU groups with all-pairs P2P connectivity.

        Used to decide whether a job's P2P requirement is attainable at
        all on this hardware (TOPO-AWARE-P must not postpone forever
        waiting for an allocation the machine cannot provide).
        Computed greedily over P2P adjacency cliques per socket/switch
        group; exact for the hierarchical machines modelled here.
        Pure in the graph, so the result is cached per ``machine``
        scope until the next mutation; callers get a fresh list.
        """
        cached = self._caches.p2p_islands.get(machine)
        if cached is None:
            cached = tuple(self._scan_p2p_islands(machine))
            self._caches.p2p_islands[machine] = cached
        return list(cached)

    @property
    def pack_memo(self) -> dict[int, tuple[str, ...]]:
        """Whole-topology pack placements keyed by GPU count.

        Owned by the graph so every mutation clears it with the other
        caches; filled by
        :meth:`repro.perf.model.PerformanceModel.placement_gpus`.
        """
        return self._caches.pack

    @property
    def bus_capacity_memo(self) -> dict[str, float]:
        """Per-machine bus capacities keyed by machine name.

        Owned by the graph so every mutation clears it with the other
        caches; filled by
        :func:`repro.core.constraints.machine_bus_capacity`.
        """
        return self._caches.bus_capacity

    @property
    def comm_bounds_memo(self) -> dict[int, tuple[float, float]]:
        """Eq. 3 best/worst communication cost keyed by GPU count.

        Owned by the graph so every mutation clears it with the other
        caches; filled by :func:`repro.core.utility.comm_cost_bounds`.
        """
        return self._caches.comm_bounds

    def _scan_p2p_islands(self, machine: str | None) -> list[int]:
        sizes: list[int] = []
        for sock in self.sockets(machine=machine):
            gpus = self.gpus(socket=sock)
            # group GPUs by mutual P2P reachability within the socket
            remaining = set(gpus)
            while remaining:
                seed = min(remaining)
                island = {seed}
                for g in sorted(remaining - {seed}):
                    if all(self.p2p_connected(g, member) for member in island):
                        island.add(g)
                sizes.append(len(island))
                remaining -= island
        return sorted(sizes, reverse=True)

    def nvlink_pairs(self) -> list[tuple[str, str]]:
        """GPU pairs connected by a *direct* NVLink edge (P2P capable)."""
        pairs = []
        for edge in self.edges():
            if edge.spec.link_type is LinkType.NVLINK:
                nu, nv = self.node(edge.u), self.node(edge.v)
                if nu.kind is NodeKind.GPU and nv.kind is NodeKind.GPU:
                    pairs.append(edge.key)
        return sorted(pairs)

    def to_networkx(self):
        """Export to a :mod:`networkx` graph (for analysis/visualisation).

        Needs networkx, which the package does not require at run time
        (it is in the ``test`` extra).
        """
        import networkx as nx

        g = nx.Graph(name=self.name)
        for node in self._nodes.values():
            g.add_node(
                node.name,
                kind=node.kind.value,
                machine=node.machine,
                socket=node.socket,
                gpu_index=node.gpu_index,
            )
        for edge in self.edges():
            g.add_edge(
                edge.u,
                edge.v,
                weight=edge.weight,
                link_type=edge.spec.link_type.value,
                bandwidth_gbs=edge.spec.bandwidth_gbs,
            )
        return g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TopologyGraph({self.name!r}, nodes={len(self._nodes)}, "
            f"gpus={len(self.gpus())}, machines={len(self.machines())})"
        )
