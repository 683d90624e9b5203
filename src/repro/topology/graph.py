"""Hierarchical physical topology graph (paper Section 4.1.2, Figure 7).

A :class:`TopologyGraph` holds the levels network -> machine -> socket
-> (optional switches) -> GPU as vertices, plus direct GPU-to-GPU edges
for NVLink connections.  Every edge carries

* ``weight`` -- the qualitative distance used by the communication-cost
  metric (Eq. 3); shortest-path sums over these weights define how
  "far" two GPUs are, and
* ``spec`` -- a :class:`~repro.topology.links.LinkSpec` with the link
  technology and bandwidth, used by the performance/interference models.

The graph is undirected.  Shortest-path distances, shortest paths and
widest-path (bottleneck-bandwidth) queries are computed with Dijkstra
variants.  A query between two nodes of one machine only searches that
machine, so its answer is a function of the machine's shape
(:meth:`TopologyGraph.machine_shape`): it is stored once per shape, in
machine-relative names, and serves every machine of that shape (on a
fleet of identical machines, one search serves them all).  Queries
across machines are cached by node name.  A mutation invalidates the
name-keyed caches and the machine -> shape id map: the next query
clears them, so a build's run of mutations clears once.  The per-shape
tables stay, because a shape id names one shape for the life of the
graph.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import AbstractSet, Iterable, Iterator, NamedTuple

from repro.topology.links import LinkSpec, LinkType
from repro.topology.shapes import absolute, describe, relative


class TopologyError(ValueError):
    """Raised for malformed topology construction or queries."""


#: bound on each of the caches of *unscoped* per-source Dijkstra and
#: widest-path results.  Every cross-machine distance or bandwidth
#: query is served from these, and each one
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


class Node(NamedTuple):
    """A topology vertex.

    ``machine`` and ``socket`` record the enclosing components (``None``
    above that level); ``gpu_index`` is the machine-local GPU id used by
    enforcement (``CUDA_VISIBLE_DEVICES`` ordering).  A named tuple, so
    immutable, hashable and built without a per-field ``__setattr__``
    (a 1000-machine fleet has 7,001 nodes).
    """

    name: str
    kind: NodeKind
    machine: str | None = None
    socket: str | None = None
    gpu_index: int | None = None


class Edge(NamedTuple):
    """An undirected topology edge between ``u`` and ``v`` (a named
    tuple, like :class:`Node`)."""

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
    #: unscoped (cross-machine) searches, keyed by node name; ``dist``
    #: and ``widest`` are in LRU order (see :data:`DIST_UNSCOPED_CACHE_MAX`)
    dist: "OrderedDict[str, dict[str, float]]" = field(default_factory=OrderedDict)
    widest: "OrderedDict[str, dict[str, float]]" = field(default_factory=OrderedDict)
    routes: dict[tuple[str, str], tuple[tuple[str, ...], bool]] = field(
        default_factory=dict
    )
    #: machine -> shape id (see :meth:`TopologyGraph.machine_shape_id`)
    shape_ids: dict[str, int] = field(default_factory=dict)
    #: node -> (machine, relative name); see :meth:`TopologyGraph._locate`
    locations: dict[str, tuple] = field(default_factory=dict)
    #: machine -> names of the machine node and every node it owns
    members: dict[str | None, list[str]] | None = None
    machines: list[str] | None = None
    gpu_lists: dict[tuple[str | None, str | None], list[str]] = field(
        default_factory=dict
    )
    socket_lists: dict[str | None, list[str]] = field(default_factory=dict)
    socket_map: dict[str, str] = field(default_factory=dict)
    #: the whole fleet's :meth:`TopologyGraph.p2p_island_sizes`,
    #: filled on first use
    p2p_islands: tuple[int, ...] | None = None
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
        self.__init__()  # every field back to its default


class _StaleCaches(_Caches):
    """A graph's caches after a mutation.

    A mutation only switches the caches to this class; the first query
    after it (any attribute read) switches them back and clears them,
    so a run of mutations clears once and nothing cached before a
    mutation outlives it.  Reads of live caches never pass through
    here.
    """

    def __getattribute__(self, name: str):
        self.__class__ = _Caches
        self.clear()
        return getattr(self, name)


class TopologyGraph:
    """Weighted undirected graph over topology components."""

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self._nodes: dict[str, Node] = {}
        self._adj: dict[str, dict[str, Edge]] = {}
        self._caches = _Caches()
        # Shape ids and the answers of machine-scoped searches, keyed by
        # shape id and relative names.  Never cleared: an id names one
        # shape for the life of the graph (see machine_shape_id), and a
        # scoped answer depends only on the shape.
        #: shape -> shape id
        self._shape_ids: dict[tuple, int] = {}
        #: (shape id, source) -> target -> shortest-path distance
        self._shape_dist: dict[tuple, dict] = {}
        #: (shape id, source) -> target -> widest-path bandwidth
        self._shape_widest: dict[tuple, dict] = {}
        #: (shape id, source, target) -> (shortest path, P2P along it)
        self._shape_routes: dict[tuple, tuple[tuple, bool]] = {}
        #: shape id -> the machine's P2P island sizes, largest first
        self._shape_islands: dict[int, tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
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
        if type(self._caches) is _Caches:
            self._caches.__class__ = _StaleCaches
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
        if type(self._caches) is _Caches:
            self._caches.__class__ = _StaleCaches
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
        if type(self._caches) is _Caches:
            self._caches.__class__ = _StaleCaches

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
        machine = (self._caches.locations.get(name) or self._locate(name))[0]
        if machine is None:
            raise TopologyError(f"node {name!r} has no machine")
        return machine

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

    def _members(self, machine: str) -> list[str]:
        """``machine`` and every node whose ``machine`` it is, sorted.

        One pass over the node table groups every machine's nodes, so
        a sweep over the fleet does not rescan it per machine.
        """
        groups = self._caches.members
        if groups is None:
            groups = {}
            for name, node in self._nodes.items():
                groups.setdefault(node.machine, []).append(name)
            self._caches.members = groups
        return sorted([machine, *groups.get(machine, ())])

    def machine_shape(self, machine: str) -> tuple:
        """Hashable description of ``machine``'s local subgraph with
        machine-relative names.

        Covers the machine node and every node whose ``machine`` it is,
        in name order: relative name, kind, socket, GPU index, and each
        neighbour in adjacency order with its kind and the edge's
        weight and link-spec fields
        (:func:`~repro.topology.shapes.describe`).  Names under
        ``"<machine>/"`` lose that prefix and the machine node becomes
        ``None``; any other name (a neighbour outside the machine, or a
        local node named without the prefix) is kept whole, so a shape
        holding a local node of that kind is one machine's alone.

        Two machines with equal shapes are therefore identical up to the
        prefix, down to the adjacency order that breaks shortest-path
        ties, and every scoped distance, path and sort of their names
        corresponds.  Computed afresh on every call;
        :meth:`machine_shape_id` interns it once per machine, or once
        per fleet for a :func:`~repro.topology.builders.cluster` of a
        named machine model.
        """
        return describe(self._nodes, self._adj, machine, self._members(machine))

    def machine_shape_id(self, machine: str) -> int:
        """Small integer naming ``machine``'s :meth:`machine_shape`.

        Assigned on first use: the shape is interned in a table that is
        never cleared, so an id names one shape for the life of the
        graph, and machines of equal shape share it.
        :func:`~repro.topology.builders.cluster` enters the ids of a
        named machine model's fleet when it builds it.  A mutation clears
        only the machine -> id map; a changed machine then gets the id
        of its new shape.
        """
        shape_id = self._caches.shape_ids.get(machine)
        if shape_id is None:
            if self.node(machine).kind is not NodeKind.MACHINE:
                raise TopologyError(f"node {machine!r} is not a machine")
            shape = self.machine_shape(machine)
            shape_id = self._shape_ids.setdefault(shape, len(self._shape_ids))
            self._caches.shape_ids[machine] = shape_id
        return shape_id

    def _locate(self, name: str) -> tuple:
        """``(machine, relative name)`` of node ``name``.

        ``machine`` is :meth:`machine_of`: the node itself for a machine
        node, else its ``machine``, whose scoped searches cover the node.
        A node outside every machine (the network) gets ``(None, name)``.
        Raises :class:`TopologyError` for an unknown name; cached by
        name until the next mutation.
        """
        loc = self._caches.locations.get(name)
        if loc is None:
            node = self.node(name)
            machine = name if node.kind is NodeKind.MACHINE else node.machine
            if machine is None:
                loc = (None, name)
            else:
                loc = (machine, relative(name, machine, machine + "/"))
            self._caches.locations[name] = loc
        return loc

    def machine_relative(self, names: Iterable[str]) -> tuple[int, tuple] | None:
        """``(shape id, machine-relative names)`` when every name is a
        node of one machine (or the machine node), else ``None``.

        Equal results name corresponding nodes of machines of equal
        shape, so the pair keys any answer that depends only on the
        machine's subgraph and the nodes' places in it.
        """
        locations = self._caches.locations
        locs = [locations.get(n) or self._locate(n) for n in names]
        if not locs:
            return None
        machine = locs[0][0]
        if machine is None or any(loc[0] != machine for loc in locs):
            return None
        return self.machine_shape_id(machine), tuple([loc[1] for loc in locs])

    def gpu_index_of(self, name: str) -> int:
        node = self.node(name)
        if node.kind is not NodeKind.GPU or node.gpu_index is None:
            raise TopologyError(f"node {name!r} is not a GPU")
        return node.gpu_index

    # ------------------------------------------------------------------
    # shortest paths / widest paths
    # ------------------------------------------------------------------
    def _dijkstra(
        self,
        source: str,
        machines: AbstractSet[str | None] | None = None,
        prev: dict | None = None,
        target: str | None = None,
    ) -> dict[str, float]:
        """Single-source shortest paths over the nodes of ``machines``.

        A search enters a node only when its machine (the node itself
        for a machine node, ``None`` for a node outside every machine)
        is in ``machines``; ``None`` searches the whole graph.
        Hierarchical weights keep intra-machine paths inside their
        machine, so ``{m}`` is exact for same-machine queries and much
        cheaper on clusters.  Each node's predecessor goes into ``prev``
        when it is given; the search stops once ``target`` is settled.
        Not cached: see :meth:`distance` and :meth:`shortest_path`.

        GPU nodes never *transit* traffic: a path may start or end at a
        GPU but cannot route through one (P100-class NVLink does not
        relay; non-adjacent GPU pairs go through switches/sockets, which
        is exactly what ``nvidia-smi topo`` reports as PIX/PHB/SYS).
        """
        self.node(source)
        nodes, adj = self._nodes, self._adj
        machine_kind, gpu_kind = NodeKind.MACHINE, NodeKind.GPU
        dist: dict[str, float] = {source: 0.0}
        heap: list[tuple[float, str]] = [(0.0, source)]
        done: set[str] = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            if u == target:
                break
            done.add(u)
            if u != source and nodes[u].kind is gpu_kind:
                continue  # GPUs are endpoints, never relays
            for v, edge in adj[u].items():
                if machines is not None:
                    node = nodes[v]
                    if (v if node.kind is machine_kind else node.machine) not in machines:
                        continue
                nd = d + edge.weight
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    if prev is not None:
                        prev[v] = u
                    heapq.heappush(heap, (nd, v))
        return dist

    def _unscoped(self, cache: OrderedDict, search, source: str) -> dict[str, float]:
        """``search(source)`` over the whole graph, cached in ``cache``
        by name.  Unscoped rows are graph-sized; only the hottest few
        are kept (see :data:`DIST_UNSCOPED_CACHE_MAX`) so large fleets
        do not accumulate one full-graph dict per GPU."""
        row = cache.get(source)
        if row is None:
            row = cache[source] = search(source)
            if len(cache) > DIST_UNSCOPED_CACHE_MAX:
                cache.popitem(last=False)
        else:
            cache.move_to_end(source)
        return row

    def _lookup(self, u: str, v: str, table: dict, search, cache: OrderedDict) -> float:
        """``search``'s answer from ``u`` at ``v != u``: from the
        shape's ``table`` when both lie in one machine, else from the
        name-keyed ``cache`` of unscoped rows."""
        locations = self._caches.locations
        mu, ru = locations.get(u) or self._locate(u)
        mv, rv = locations.get(v) or self._locate(v)
        try:
            if mu is None or mu != mv:
                return self._unscoped(cache, search, u)[v]
            key = (self.machine_shape_id(mu), ru)
            row = table.get(key)
            if row is None:
                prefix = mu + "/"
                row = table[key] = {
                    relative(name, mu, prefix): value
                    for name, value in search(u, {mu}).items()
                }
            return row[rv]
        except KeyError:
            raise TopologyError(f"{u!r} and {v!r} are disconnected") from None

    def distance(self, u: str, v: str) -> float:
        """Shortest-path distance (sum of qualitative edge weights)."""
        if u == v:
            self.node(u)
            return 0.0
        return self._lookup(u, v, self._shape_dist, self._dijkstra, self._caches.dist)

    def point_distance(self, u: str, v: str) -> float:
        """:meth:`distance` from ``u`` to ``v`` by one point-to-point
        search, not cached.

        The search stops once ``v`` is settled and enters only the
        endpoints' machines and the nodes outside every machine.  Where
        each machine meets the rest of the graph at one node, as in
        :func:`~repro.topology.builders.cluster`, no simple path between
        two other machines passes through a third, so the answer is the
        whole-graph search's float: the same loop relaxes the same edges
        in the same order (DESIGN.md §9 "Set-up").
        """
        if u == v:
            self.node(u)
            return 0.0
        ends = {self._locate(u)[0], self._locate(v)[0], None}
        dist = self._dijkstra(u, ends, target=v)
        if v not in dist:
            raise TopologyError(f"{u!r} and {v!r} are disconnected")
        return dist[v]

    def _search_path(
        self, u: str, v: str, machines: AbstractSet[str] | None
    ) -> tuple[str, ...]:
        """One shortest path from ``u`` to ``v`` (``u != v``), searched
        over ``machines`` as in :meth:`_dijkstra`.  Not cached."""
        prev: dict[str, str] = {}
        if v not in self._dijkstra(u, machines, prev):
            raise TopologyError(f"{u!r} and {v!r} are disconnected")
        path = [v]
        while path[-1] != u:
            path.append(prev[path[-1]])
        path.reverse()
        return tuple(path)

    def _p2p_along(self, path: tuple[str, ...]) -> bool:
        """True when no node strictly inside ``path`` is a socket, a
        machine or the network (see :meth:`p2p_connected`)."""
        return all(
            self._nodes[name].kind in (NodeKind.GPU, NodeKind.SWITCH)
            for name in path[1:-1]
        )

    def _route(self, u: str, v: str) -> tuple[tuple, bool, str | None]:
        """``(path, p2p, machine)`` for two nodes ``u != v``.

        Within one machine the path is in names relative to
        ``machine``, from the shape's table; across machines
        ``machine`` is ``None`` and the path is in node names, from a
        name-keyed cache.
        """
        locations = self._caches.locations
        mu, ru = locations.get(u) or self._locate(u)
        mv, rv = locations.get(v) or self._locate(v)
        if mu is None or mu != mv:
            mu, table, key = None, self._caches.routes, (u, v)
        else:
            table, key = self._shape_routes, (self.machine_shape_id(mu), ru, rv)
        entry = table.get(key)
        if entry is None:
            path = self._search_path(u, v, None if mu is None else {mu})
            entry = table[key] = (
                path if mu is None else tuple([relative(n, mu, mu + "/") for n in path]),
                self._p2p_along(path),
            )
        return (*entry, mu)

    def shortest_path(self, u: str, v: str) -> tuple[str, ...]:
        """One shortest path from ``u`` to ``v`` as a node-name tuple."""
        if u == v:
            self.node(u)
            return (u,)
        path, _, machine = self._route(u, v)
        if machine is None:
            return path
        prefix = machine + "/"
        return tuple([
            prefix + rel if type(rel) is str else absolute(rel, machine, prefix)
            for rel in path
        ])

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
        if u == v:
            self.node(u)
            return float("inf")
        return self._lookup(u, v, self._shape_widest, self._widest_from, self._caches.widest)

    def _widest_from(
        self, source: str, machines: AbstractSet[str] | None = None
    ) -> dict[str, float]:
        """Widest-path bandwidth from ``source`` to every node it
        reaches over ``machines``, as in :meth:`_dijkstra`.  Not
        cached: see :meth:`bottleneck_bandwidth`."""
        self.node(source)
        nodes, adj = self._nodes, self._adj
        machine_kind, gpu_kind = NodeKind.MACHINE, NodeKind.GPU
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
            if u != source and nodes[u].kind is gpu_kind:
                continue  # GPUs are endpoints, never relays
            for v, edge in adj[u].items():
                if machines is not None:
                    node = nodes[v]
                    if (v if node.kind is machine_kind else node.machine) not in machines:
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
        return sum(
            (self.distance(u, v) for i, u in enumerate(names) for v in names[i + 1:]),
            0.0,
        )

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
        return self._route(gpu_a, gpu_b)[1]

    def p2p_island_sizes(self, machine: str | None = None) -> list[int]:
        """Sizes of maximal GPU groups with all-pairs P2P connectivity.

        Used to decide whether a job's P2P requirement is attainable at
        all on this hardware (TOPO-AWARE-P must not postpone forever
        waiting for an allocation the machine cannot provide).
        Computed greedily over P2P adjacency cliques per socket/switch
        group; exact for the hierarchical machines modelled here, where
        every socket belongs to a machine and holds that machine's GPUs.
        A machine's sizes are computed once per shape.  The whole
        fleet's (``machine=None``) are every machine's, largest first:
        each shape's list repeated once per machine of that shape, so
        a fleet whose shape ids :func:`~repro.topology.builders.cluster`
        entered computes one list per shape; cached until the next
        mutation.  Callers get a fresh list.
        """
        if machine is not None:
            shape_id = self.machine_shape_id(machine)
            cached = self._shape_islands.get(shape_id)
            if cached is None:
                cached = self._shape_islands[shape_id] = tuple(
                    self._scan_p2p_islands(machine)
                )
            return list(cached)
        if self._caches.p2p_islands is None:
            shapes: dict[int, list] = {}  # shape id -> [a machine, count]
            for m in self.machines():
                shapes.setdefault(self.machine_shape_id(m), [m, 0])[1] += 1
            sizes = []
            for m, count in shapes.values():
                sizes += self.p2p_island_sizes(m) * count
            self._caches.p2p_islands = tuple(sorted(sizes, reverse=True))
        return list(self._caches.p2p_islands)

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
