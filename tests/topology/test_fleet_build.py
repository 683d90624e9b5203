"""A fleet build pays for each piece of work once, and builds the same graph.

A mutation defers the graph's cache clear to the next query (one
invalidation per build), the builders share the factories' link specs
and :func:`cluster` merges machines in one pass; a fleet of a named
machine model gets its shape ids at build time.  The reference here is
the per-mutation build kept test-only: every ``add_node`` /
``add_edge`` / ``merge`` clears the caches at once, ``merge`` copies
edge by edge as :meth:`TopologyGraph.edges` yields them, and every link
spec is a fresh object.  Both must give the same nodes in the same order, the same
adjacency order at every node (it breaks shortest-path ties), the same
edges, weights and specs, and the same ``machine_shape`` per machine.
"""

from __future__ import annotations

import pytest

import repro.topology.builders as builders
import repro.topology.graph as graph_mod
from repro.topology.builders import (
    MACHINES,
    cluster,
    dgx1,
    machine,
    power8_minsky,
    power8_pcie_k80,
)
from repro.topology.graph import NodeKind, TopologyError, TopologyGraph
from repro.topology.links import LinkSpec, LinkType


class ReferenceGraph(TopologyGraph):
    """The per-mutation build: an eager clear, edge-by-edge merge."""

    def add_node(self, *args, **kwargs):
        node = super().add_node(*args, **kwargs)
        self._caches.clear()
        return node

    def add_edge(self, *args, **kwargs):
        edge = super().add_edge(*args, **kwargs)
        self._caches.clear()
        return edge

    def merge(self, other: TopologyGraph) -> None:
        for node in other._nodes.values():
            if node.name in self._nodes:
                raise TopologyError(f"node {node.name!r} exists in both graphs")
            self._nodes[node.name] = node
            self._adj[node.name] = {}
        for edge in other.edges():
            self._adj[edge.u][edge.v] = edge
            self._adj[edge.v][edge.u] = edge
        self._caches.clear()


def reference(make):
    """Run ``make`` building with :class:`ReferenceGraph` and fresh
    link specs."""
    fresh = {
        "nvlink": lambda lanes=1: LinkSpec(LinkType.NVLINK, lanes=lanes),
        "pcie": lambda: LinkSpec(LinkType.PCIE),
        "xbus": lambda: LinkSpec(LinkType.XBUS),
        "network": lambda: LinkSpec(LinkType.NETWORK),
        "onboard": lambda: LinkSpec(LinkType.ONBOARD, bandwidth_gbs=1e9),
    }
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(builders, "TopologyGraph", ReferenceGraph)
        for name, factory in fresh.items():
            patch.setattr(LinkSpec, name, staticmethod(factory))
        topo = make()
    assert type(topo) is ReferenceGraph
    return topo


def mixed(machine_id: str) -> TopologyGraph:
    """Alternating DGX-1 and PCIe-K80 machines."""
    return (dgx1, power8_pcie_k80)[int(machine_id[1:]) % 2](machine_id)


FLEETS = {
    "power8_minsky": lambda: power8_minsky("m3"),
    "dgx1": lambda: dgx1("m1"),
    "power8_pcie_k80": lambda: power8_pcie_k80(),
    "machine": lambda: machine(
        "m2", sockets=3, gpus_per_socket=3, peer_link=LinkSpec.nvlink(1)
    ),
    "cluster-minsky": lambda: cluster(12),
    "cluster-dgx1": lambda: cluster(5, dgx1),
    "cluster-mixed": lambda: cluster(9, mixed),
    "cluster-machine": lambda: cluster(
        4, lambda m: machine(m, gpus_per_socket=3, peer_link=LinkSpec.pcie())
    ),
}


def layout(topo: TopologyGraph):
    """Everything a build decides, in order, compared by value."""
    return {
        "nodes": list(topo._nodes.items()),
        "adjacency": {
            name: [(v, edge) for v, edge in nbrs.items()]
            for name, nbrs in topo._adj.items()
        },
        "edges": [(e.u, e.v, e.weight, e.spec) for e in topo.edges()],
        "shapes": {m: topo.machine_shape(m) for m in topo.machines()},
    }


@pytest.mark.parametrize("name", sorted(FLEETS))
def test_build_matches_the_per_mutation_reference(name):
    fast = FLEETS[name]()
    assert type(fast) is TopologyGraph
    expected = layout(reference(FLEETS[name]))
    got = layout(fast)
    assert got["nodes"] == expected["nodes"]
    # adjacency order node by node, not just as sets
    assert list(got["adjacency"]) == list(expected["adjacency"])
    for node, nbrs in expected["adjacency"].items():
        assert got["adjacency"][node] == nbrs, node
    assert got["edges"] == expected["edges"]
    assert got["shapes"] == expected["shapes"]
    # shapes keep their hashes, so pool-solve cache keys do not move
    assert {m: hash(s) for m, s in got["shapes"].items()} == {
        m: hash(s) for m, s in expected["shapes"].items()
    }


def entered_ids_are_lazy_ids(topo: TopologyGraph) -> dict[str, int]:
    """The ids the build entered, after checking each equals the id a
    lazy description gives (the intern table outlives the clear)."""
    entered = dict(topo._caches.shape_ids)
    topo._caches.shape_ids.clear()
    for machine, shape_id in entered.items():
        assert topo.machine_shape_id(machine) == shape_id, machine
    return entered


@pytest.mark.parametrize("model", sorted(MACHINES))
def test_every_named_model_fleet_has_every_id_entered(model, monkeypatch):
    """A cluster of a named model equals the per-mutation reference,
    and its build entered every machine's shape id, describing one
    machine; each entered id is the one a description gives."""
    builder = MACHINES[model]
    described = []
    real = TopologyGraph.machine_shape
    monkeypatch.setattr(
        TopologyGraph, "machine_shape", lambda g, m: (described.append(m), real(g, m))[1]
    )
    fast = cluster(7, builder)
    assert described == ["m0"]
    monkeypatch.setattr(TopologyGraph, "machine_shape", real)
    slow = reference(lambda: cluster(7, builder))
    # (each node's adjacency is a list, so its order is compared)
    assert layout(fast) == layout(slow)
    assert fast.name == slow.name
    assert sorted(entered_ids_are_lazy_ids(fast)) == fast.machines()
    assert len(set(fast._caches.shape_ids.values())) == 1


def test_other_builders_keep_every_machine_lazy(monkeypatch):
    """A builder that is not a named model, even one wrapping a named
    model, gets no entered id: a machine it changed is described
    afresh, as is every other."""

    def builder(mid):
        topo = power8_minsky(mid)
        if mid == "m1":
            topo.add_edge("m1/gpu0", "m1/gpu2", 1.0, LinkSpec.nvlink(2))
        elif mid == "m2":
            topo.add_node("m2/s2", NodeKind.SOCKET, machine="m2")
            topo.add_edge("m2/s2", "m2", 20.0, LinkSpec.xbus())
        return topo

    assert cluster(3, lambda mid: power8_minsky(mid))._caches.shape_ids == {}
    topo = cluster(4, builder)
    assert topo._caches.shape_ids == {}
    described = []
    real = topo.machine_shape
    monkeypatch.setattr(
        topo, "machine_shape", lambda m: (described.append(m), real(m))[1]
    )
    twin = topo.machine_shape_id("m3")
    assert topo.machine_shape_id("m0") == twin
    assert topo.machine_shape_id("m1") != twin
    assert topo.machine_shape_id("m2") not in (twin, topo.machine_shape_id("m1"))
    assert described == ["m3", "m0", "m1", "m2"]
    slow = reference(lambda: cluster(4, builder))
    assert layout(topo)["shapes"] == layout(slow)["shapes"]
    assert topo.distance("m1/gpu0", "m1/gpu2") == 1.0
    assert topo.distance("m0/gpu0", "m0/gpu2") == slow.distance("m0/gpu0", "m0/gpu2") > 1.0


def test_a_network_named_inside_a_machine_keeps_that_machine_lazy():
    """``m1/net`` is a relative name to ``m1`` alone, so ``m1``'s shape
    is not its twins'."""
    topo = cluster(3, network_name="m1/net")
    entered = entered_ids_are_lazy_ids(topo)
    assert sorted(entered) == ["m0", "m2"]
    assert topo.machine_shape_id("m1") != entered["m0"]


def test_distances_and_paths_match_the_reference():
    fast = cluster(6, mixed)
    slow = reference(lambda: cluster(6, mixed))
    gpus = fast.gpus()
    assert gpus == slow.gpus()
    for u in gpus[::3]:
        for v in gpus[1::4]:
            assert fast.distance(u, v) == slow.distance(u, v)
            assert fast.shortest_path(u, v) == slow.shortest_path(u, v)
            assert fast.bottleneck_bandwidth(u, v) == slow.bottleneck_bandwidth(u, v)


def test_specs_are_shared_and_equal_by_value():
    assert LinkSpec.nvlink(2) is LinkSpec.nvlink(2)
    assert LinkSpec.nvlink(2) == LinkSpec(LinkType.NVLINK, lanes=2)
    assert hash(LinkSpec.pcie()) == hash(LinkSpec(LinkType.PCIE))
    assert LinkSpec.nvlink(2).bandwidth_gbs == 40.0
    assert LinkSpec.onboard() == LinkSpec(LinkType.ONBOARD, bandwidth_gbs=1e9)
    with pytest.raises(ValueError):
        LinkSpec.nvlink(0)
    with pytest.raises(ValueError):  # a refused count is not kept
        LinkSpec.nvlink(0)


def test_one_invalidation_and_every_validation_per_build(monkeypatch):
    counts = {"clear": 0, "validate": 0}
    clear, validate = graph_mod._Caches.clear, TopologyGraph.validate

    def counting_clear(self):
        counts["clear"] += 1
        clear(self)

    def counting_validate(self):
        counts["validate"] += 1
        validate(self)

    monkeypatch.setattr(graph_mod._Caches, "clear", counting_clear)
    monkeypatch.setattr(TopologyGraph, "validate", counting_validate)
    topo = cluster(40)
    # a machine graph is merged away unqueried, so only the fleet
    # clears, at its first query (entering the shape ids); each builder
    # validates its machine and the fleet is validated once
    assert counts == {"clear": 1, "validate": 41}
    # a run of mutations on a queried graph clears once, at the next
    # query
    for i in range(3):
        topo.add_node(f"spare{i}", NodeKind.NETWORK)
    assert counts["clear"] == 1
    assert len(topo.machines()) == 40
    assert counts["clear"] == 2


# ----------------------------------------------------------------------
# every check still runs
# ----------------------------------------------------------------------
def bare_machine(machine_id: str) -> TopologyGraph:
    """A valid one-GPU machine, not validated by its builder."""
    topo = TopologyGraph()
    topo.add_node(machine_id, NodeKind.MACHINE)
    sock = f"{machine_id}/s0"
    topo.add_node(sock, NodeKind.SOCKET, machine=machine_id)
    topo.add_edge(sock, machine_id, 20.0, LinkSpec.xbus())
    gpu = f"{machine_id}/gpu0"
    topo.add_node(gpu, NodeKind.GPU, machine=machine_id, socket=sock, gpu_index=0)
    topo.add_edge(gpu, sock, 1.0, LinkSpec.nvlink(2))
    return topo


def duplicate_node(machine_id: str) -> TopologyGraph:
    topo = bare_machine(machine_id)
    topo.add_node(f"{machine_id}/s0", NodeKind.SOCKET, machine=machine_id)
    return topo


def disconnected_node(machine_id: str) -> TopologyGraph:
    topo = bare_machine(machine_id)
    topo.add_node(f"{machine_id}/s1", NodeKind.SOCKET, machine=machine_id)
    return topo


def duplicate_gpu_index(machine_id: str) -> TopologyGraph:
    topo = bare_machine(machine_id)
    gpu = f"{machine_id}/gpu1"
    topo.add_node(
        gpu, NodeKind.GPU, machine=machine_id, socket=f"{machine_id}/s0", gpu_index=0
    )
    topo.add_edge(gpu, f"{machine_id}/s0", 1.0, LinkSpec.nvlink(2))
    return topo


def self_loop(machine_id: str) -> TopologyGraph:
    topo = bare_machine(machine_id)
    topo.add_edge(f"{machine_id}/s0", f"{machine_id}/s0", 1.0, LinkSpec.xbus())
    return topo


def same_names(machine_id: str) -> TopologyGraph:
    return bare_machine("m0")  # ignores its id: collides on merge


@pytest.mark.parametrize(
    "builder, message",
    [
        (duplicate_node, "duplicate node"),
        (disconnected_node, "disconnected nodes"),
        (duplicate_gpu_index, "duplicate gpu_index"),
        (self_loop, "self-loop"),
        (same_names, "exists in both graphs"),
    ],
)
def test_malformed_builders_still_raise(builder, message):
    assert cluster(1, bare_machine).validate() is None
    with pytest.raises(TopologyError, match=message):
        cluster(2, builder)


def test_per_add_checks_run_on_every_mutation():
    """Every check runs while the clear is deferred, and a refused
    mutation leaves the graph as it was."""
    topo = TopologyGraph()
    topo.add_node("m0", NodeKind.MACHINE)
    with pytest.raises(TopologyError, match="requires gpu_index"):
        topo.add_node("m0/gpu0", NodeKind.GPU, machine="m0")
    with pytest.raises(TopologyError, match="unknown node"):
        topo.add_edge("m0", "ghost", 1.0, LinkSpec.pcie())
    topo.add_node("m0/s0", NodeKind.SOCKET, machine="m0")
    topo.add_edge("m0/s0", "m0", 20.0, LinkSpec.xbus())
    with pytest.raises(TopologyError, match="duplicate edge"):
        topo.add_edge("m0", "m0/s0", 20.0, LinkSpec.xbus())
    topo.add_node("m0/s1", NodeKind.SOCKET, machine="m0")
    with pytest.raises(TopologyError, match="must be positive"):
        topo.add_edge("m0/s1", "m0", 0.0, LinkSpec.xbus())
    with pytest.raises(TopologyError, match="self-loop"):
        topo.add_edge("m0/s1", "m0/s1", 1.0, LinkSpec.xbus())
    with pytest.raises(TopologyError, match="duplicate node"):
        topo.add_node("m0/s1", NodeKind.SOCKET, machine="m0")
    assert [n.name for n in topo.nodes()] == ["m0", "m0/s0", "m0/s1"]
    assert topo.neighbors("m0") == ["m0/s0"]


# ----------------------------------------------------------------------
# no stale cache, mid-build or after a query
# ----------------------------------------------------------------------
def add_gpu(topo: TopologyGraph, index: int) -> str:
    name = f"m0/gpu{index}"
    topo.add_node(name, NodeKind.GPU, machine="m0", socket="m0/s0", gpu_index=index)
    topo.add_edge(name, "m0/s0", 1.0, LinkSpec.nvlink(2))
    return name


def test_query_mid_build_is_never_stale():
    topo = TopologyGraph()
    topo.add_node("m0", NodeKind.MACHINE)
    topo.add_node("m0/s0", NodeKind.SOCKET, machine="m0")
    topo.add_edge("m0/s0", "m0", 20.0, LinkSpec.xbus())
    add_gpu(topo, 0)
    add_gpu(topo, 1)
    assert topo.gpus() == ["m0/gpu0", "m0/gpu1"]
    assert topo.distance("m0/gpu0", "m0/gpu1") == 2.0
    assert topo.p2p_island_sizes() == [1, 1]
    # mutations after a query invalidate what it cached
    add_gpu(topo, 2)
    topo.add_edge("m0/gpu0", "m0/gpu1", 1.0, LinkSpec.nvlink(2))
    assert topo.gpus() == ["m0/gpu0", "m0/gpu1", "m0/gpu2"]
    assert topo.distance("m0/gpu0", "m0/gpu1") == 1.0
    assert topo.p2p_island_sizes() == [2, 1]
    add_gpu(topo, 3)
    assert topo.gpus("m0") == [f"m0/gpu{i}" for i in range(4)]
    add_gpu(topo, 4)
    assert len(topo.gpus()) == 5
    add_gpu(topo, 5)
    assert len(topo.gpus()) == 6
    assert topo.sockets("m0") == ["m0/s0"]
    topo.validate()


def test_mutation_after_a_query_is_never_stale():
    topo = cluster(2)
    gpus = topo.gpus()
    far = topo.distance(gpus[0], gpus[-1])
    assert topo.machines() == ["m0", "m1"]
    # mutations on a queried graph drop what it cached
    topo.merge(power8_minsky("m2"))
    topo.add_edge("m2", "net", 100.0, LinkSpec.network())
    assert topo.machines() == ["m0", "m1", "m2"]
    assert len(topo.gpus()) == 12
    assert topo.distance(gpus[0], "m2/gpu3") == far
    topo.merge(power8_minsky("m3"))
    assert topo.machines() == ["m0", "m1", "m2", "m3"]
    topo.add_edge("m3", "net", 100.0, LinkSpec.network())
    assert topo.distance("m3/gpu0", "m0/gpu0") == far
    topo.validate()


def test_a_copy_of_an_unqueried_graph_keeps_its_own_caches():
    """Stale caches hold no reference to their graph: a copy or a
    pickle of a graph built but never queried clears its own caches
    and leaves the original's alone."""
    import copy
    import pickle

    topo = cluster(2, lambda m: power8_minsky(m))
    for twin in (copy.deepcopy(topo), pickle.loads(pickle.dumps(topo))):
        assert twin.distance("m0/gpu0", "m1/gpu3") == 242.0
        assert twin._caches is not topo._caches
    assert topo.machines() == ["m0", "m1"]
    assert type(twin._caches) is graph_mod._Caches
