"""Property-based tests for graph algorithms against scipy references."""

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path as scipy_shortest_path

from repro.topology.builders import (
    cluster,
    dgx1,
    dgx2,
    machine,
    power8_minsky,
    power8_pcie_k80,
    power9_ac922,
)
from repro.topology.graph import NodeKind, TopologyGraph
from repro.topology.links import LinkSpec


@st.composite
def random_machine_shapes(draw):
    sockets = draw(st.integers(min_value=1, max_value=4))
    gpus_per_socket = draw(st.integers(min_value=1, max_value=4))
    peer = draw(st.booleans())
    return sockets, gpus_per_socket, peer


def _scipy_distances(topo: TopologyGraph):
    names = [n.name for n in topo.nodes()]
    index = {n: i for i, n in enumerate(names)}
    n = len(names)
    rows, cols, vals = [], [], []
    for edge in topo.edges():
        i, j = index[edge.u], index[edge.v]
        rows += [i, j]
        cols += [j, i]
        vals += [edge.weight, edge.weight]
    mat = csr_matrix((vals, (rows, cols)), shape=(n, n))
    return names, scipy_shortest_path(mat, method="D", directed=False)


FLEET_BUILDERS = (power8_minsky, dgx1, power8_pcie_k80, power9_ac922, dgx2, machine)


def with_every_fleet(test):
    """Also run ``test`` on a 2- and a 3-machine fleet of each builder."""
    for builder in FLEET_BUILDERS:
        for n_machines in (2, 3):
            test = example(("fleet", n_machines, builder))(test)
    return test


@settings(max_examples=25, deadline=None)
@given(random_machine_shapes().map(lambda shape: ("machine", *shape)))
@with_every_fleet
def test_distances_match_scipy(case):
    """Our Dijkstra must agree with scipy's on every generated machine,
    and on every cross-machine GPU pair of every builder's fleets.
    Same-machine fleet pairs are not compared: scipy lets a GPU relay
    (DGX-1's NVLink mesh), the topology graph never does."""
    if case[0] == "fleet":
        _, n_machines, builder = case
        topo = cluster(n_machines, builder)
    else:
        _, sockets, gps, peer = case
        topo = machine(
            "mx",
            sockets=sockets,
            gpus_per_socket=gps,
            peer_link=LinkSpec.nvlink(1) if peer else None,
        )
    names, ref = _scipy_distances(topo)
    gpus = topo.gpus()
    index = {n: i for i, n in enumerate(names)}
    for a in gpus:
        for b in gpus:
            if case[0] == "fleet" and topo.machine_of(a) == topo.machine_of(b):
                continue
            assert topo.distance(a, b) == pytest.approx(ref[index[a], index[b]])


@settings(max_examples=25, deadline=None)
@given(random_machine_shapes())
def test_distance_is_a_metric(shape):
    sockets, gps, peer = shape
    topo = machine(
        "mx",
        sockets=sockets,
        gpus_per_socket=gps,
        peer_link=LinkSpec.nvlink(1) if peer else None,
    )
    gpus = topo.gpus()
    for a in gpus:
        assert topo.distance(a, a) == 0.0
        for b in gpus:
            d_ab = topo.distance(a, b)
            assert d_ab == topo.distance(b, a)
            if a != b:
                assert d_ab > 0
            for c in gpus:
                assert d_ab <= topo.distance(a, c) + topo.distance(c, b) + 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=4))
def test_scoped_dijkstra_matches_full_search(n_machines):
    """The machine-scoped fast path must be exact for intra-machine pairs."""
    topo = cluster(n_machines)
    for m in topo.machines():
        gpus = topo.gpus(machine=m)
        for a in gpus:
            full = topo._dijkstra(a, None)
            for b in gpus:
                assert topo.distance(a, b) == pytest.approx(full[b])


@settings(max_examples=20, deadline=None)
@given(random_machine_shapes())
def test_bottleneck_bandwidth_bounds(shape):
    """Widest-path bandwidth is at least any single path's bottleneck and
    at most the best adjacent link of either endpoint."""
    sockets, gps, peer = shape
    topo = machine(
        "mx",
        sockets=sockets,
        gpus_per_socket=gps,
        peer_link=LinkSpec.nvlink(1) if peer else None,
    )
    gpus = topo.gpus()
    for a in gpus:
        best_adjacent = max(
            topo.edge(a, nbr).spec.bandwidth_gbs for nbr in topo.neighbors(a)
        )
        for b in gpus:
            if a == b:
                continue
            bw = topo.bottleneck_bandwidth(a, b)
            path_bottleneck = min(
                e.spec.bandwidth_gbs for e in topo.path_edges(a, b)
            )
            assert bw >= path_bottleneck - 1e-9
            assert bw <= best_adjacent + 1e-9


def test_gpus_never_relay_traffic():
    """P100-class NVLink does not forward: a GPU pair without a direct
    link must route through switches/sockets, never through a third
    GPU -- matching nvidia-smi's PIX/PHB/SYS semantics."""
    topo = TopologyGraph("chain")
    topo.add_node("m", NodeKind.MACHINE)
    topo.add_node("m/s0", NodeKind.SOCKET, machine="m")
    topo.add_edge("m/s0", "m", 20.0, LinkSpec.xbus())
    for i in range(3):
        g = f"m/gpu{i}"
        topo.add_node(g, NodeKind.GPU, machine="m", socket="m/s0", gpu_index=i)
        topo.add_edge(g, "m/s0", 2.0, LinkSpec.pcie())
    # NVLink chain 0-1-2
    topo.add_edge("m/gpu0", "m/gpu1", 1.0, LinkSpec.nvlink(1))
    topo.add_edge("m/gpu1", "m/gpu2", 1.0, LinkSpec.nvlink(1))

    # 0 -> 2 must go through the socket (2+2), not through gpu1 (1+1)
    assert topo.distance("m/gpu0", "m/gpu2") == 4.0
    path = topo.shortest_path("m/gpu0", "m/gpu2")
    assert all(topo.node(n).kind is not NodeKind.GPU for n in path[1:-1])
    # and its bandwidth is PCIe, not relayed NVLink
    assert topo.bottleneck_bandwidth("m/gpu0", "m/gpu2") == pytest.approx(16.0)
    assert not topo.p2p_connected("m/gpu0", "m/gpu2")
    # direct neighbours keep their NVLink
    assert topo.distance("m/gpu0", "m/gpu1") == 1.0
    assert topo.bottleneck_bandwidth("m/gpu0", "m/gpu1") == pytest.approx(20.0)


def test_pairwise_distance_sum_equals_manual(minsky):
    fleet = cluster(3)
    spanning = ["m0/gpu0", "m0/gpu2", "m1/gpu1", "m2/gpu3"]
    for topo, gpus in [(minsky, minsky.gpus()), (fleet, spanning)]:
        manual = sum(
            topo.distance(a, b)
            for i, a in enumerate(gpus)
            for b in gpus[i + 1 :]
        )
        assert topo.pairwise_distance_sum(gpus) == pytest.approx(manual)
