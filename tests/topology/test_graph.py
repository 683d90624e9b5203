"""Unit tests for the topology graph container and path queries."""

import pytest

from repro.topology.graph import NodeKind, TopologyGraph, TopologyError
from repro.topology.links import LinkSpec


def tiny_machine() -> TopologyGraph:
    """m: two sockets, one GPU each, NVLink uplinks."""
    t = TopologyGraph("tiny")
    t.add_node("m", NodeKind.MACHINE)
    for s in range(2):
        sock = f"m/s{s}"
        t.add_node(sock, NodeKind.SOCKET, machine="m")
        t.add_edge(sock, "m", 20.0, LinkSpec.xbus())
        gpu = f"m/gpu{s}"
        t.add_node(gpu, NodeKind.GPU, machine="m", socket=sock, gpu_index=s)
        t.add_edge(gpu, sock, 1.0, LinkSpec.nvlink(2))
    return t


class TestConstruction:
    def test_duplicate_node_rejected(self):
        t = TopologyGraph()
        t.add_node("a", NodeKind.MACHINE)
        with pytest.raises(TopologyError, match="duplicate"):
            t.add_node("a", NodeKind.MACHINE)

    def test_gpu_requires_index(self):
        t = TopologyGraph()
        with pytest.raises(TopologyError, match="gpu_index"):
            t.add_node("g", NodeKind.GPU, machine="m", socket="s")

    def test_edge_to_unknown_node_rejected(self):
        t = TopologyGraph()
        t.add_node("a", NodeKind.MACHINE)
        with pytest.raises(TopologyError, match="unknown"):
            t.add_edge("a", "b", 1.0, LinkSpec.pcie())

    def test_self_loop_rejected(self):
        t = TopologyGraph()
        t.add_node("a", NodeKind.MACHINE)
        with pytest.raises(TopologyError, match="self-loop"):
            t.add_edge("a", "a", 1.0, LinkSpec.pcie())

    def test_duplicate_edge_rejected(self):
        t = TopologyGraph()
        t.add_node("a", NodeKind.MACHINE)
        t.add_node("b", NodeKind.MACHINE)
        t.add_edge("a", "b", 1.0, LinkSpec.pcie())
        with pytest.raises(TopologyError, match="duplicate edge"):
            t.add_edge("b", "a", 2.0, LinkSpec.pcie())

    def test_non_positive_weight_rejected(self):
        t = TopologyGraph()
        t.add_node("a", NodeKind.MACHINE)
        t.add_node("b", NodeKind.MACHINE)
        with pytest.raises(TopologyError, match="positive"):
            t.add_edge("a", "b", 0.0, LinkSpec.pcie())

    def test_merge_rejects_overlap(self):
        a, b = tiny_machine(), tiny_machine()
        with pytest.raises(TopologyError, match="both graphs"):
            a.merge(b)


class TestQueries:
    def test_contains_and_len(self):
        t = tiny_machine()
        assert "m/gpu0" in t
        assert "nope" not in t
        assert len(t) == 5

    def test_unknown_node_raises(self):
        with pytest.raises(TopologyError, match="unknown node"):
            tiny_machine().node("x")

    def test_gpus_sorted_by_index(self):
        t = tiny_machine()
        assert t.gpus() == ["m/gpu0", "m/gpu1"]
        assert t.gpus(socket="m/s1") == ["m/gpu1"]

    def test_machine_and_socket_of(self):
        t = tiny_machine()
        assert t.machine_of("m/gpu0") == "m"
        assert t.socket_of("m/gpu1") == "m/s1"
        assert t.machine_of("m") == "m"

    def test_gpu_index_of_non_gpu_raises(self):
        with pytest.raises(TopologyError, match="not a GPU"):
            tiny_machine().gpu_index_of("m/s0")

    def test_edges_enumerated_once(self):
        t = tiny_machine()
        assert len(list(t.edges())) == 4


class TestPaths:
    def test_distance_same_node_zero(self):
        assert tiny_machine().distance("m/gpu0", "m/gpu0") == 0.0

    def test_cross_socket_distance(self):
        t = tiny_machine()
        # gpu0 -> s0 (1) -> m (20) -> s1 (20) -> gpu1 (1)
        assert t.distance("m/gpu0", "m/gpu1") == 42.0

    def test_distance_symmetric(self):
        t = tiny_machine()
        assert t.distance("m/gpu0", "m/gpu1") == t.distance("m/gpu1", "m/gpu0")

    def test_shortest_path_endpoints(self):
        t = tiny_machine()
        path = t.shortest_path("m/gpu0", "m/gpu1")
        assert path[0] == "m/gpu0" and path[-1] == "m/gpu1"
        assert path == ("m/gpu0", "m/s0", "m", "m/s1", "m/gpu1")

    def test_path_edges_match_path(self):
        t = tiny_machine()
        edges = t.path_edges("m/gpu0", "m/gpu1")
        assert len(edges) == 4

    def test_direct_edge_preferred(self):
        t = tiny_machine()
        t.add_edge("m/gpu0", "m/gpu1", 1.0, LinkSpec.nvlink(1))
        assert t.distance("m/gpu0", "m/gpu1") == 1.0
        assert t.shortest_path("m/gpu0", "m/gpu1") == ("m/gpu0", "m/gpu1")

    def test_disconnected_raises(self):
        t = tiny_machine()
        t.add_node("island", NodeKind.MACHINE)
        with pytest.raises(TopologyError, match="disconnected"):
            t.distance("m/gpu0", "island")


class TestBottleneckBandwidth:
    def test_cross_socket_limited_by_xbus(self):
        t = tiny_machine()
        assert t.bottleneck_bandwidth("m/gpu0", "m/gpu1") == pytest.approx(38.4)

    def test_direct_link_wins(self):
        t = tiny_machine()
        t.add_edge("m/gpu0", "m/gpu1", 1.0, LinkSpec.nvlink(2))
        assert t.bottleneck_bandwidth("m/gpu0", "m/gpu1") == pytest.approx(40.0)

    def test_self_is_infinite(self):
        assert tiny_machine().bottleneck_bandwidth("m/gpu0", "m/gpu0") == float("inf")


class TestP2P:
    def test_cross_socket_is_not_p2p(self):
        t = tiny_machine()
        assert not t.p2p_connected("m/gpu0", "m/gpu1")

    def test_direct_nvlink_is_p2p(self):
        t = tiny_machine()
        t.add_edge("m/gpu0", "m/gpu1", 1.0, LinkSpec.nvlink(1))
        assert t.p2p_connected("m/gpu0", "m/gpu1")

    def test_island_sizes_tiny(self):
        t = tiny_machine()
        assert t.p2p_island_sizes() == [1, 1]


class TestAggregates:
    def test_pairwise_distance_sum(self):
        t = tiny_machine()
        assert t.pairwise_distance_sum(["m/gpu0", "m/gpu1"]) == 42.0
        assert t.pairwise_distance_sum(["m/gpu0"]) == 0.0


class TestValidate:
    def test_valid_machine_passes(self):
        tiny_machine().validate()

    def test_no_gpus_fails(self):
        t = TopologyGraph()
        t.add_node("m", NodeKind.MACHINE)
        with pytest.raises(TopologyError, match="no GPUs"):
            t.validate()

    def test_duplicate_gpu_index_fails(self):
        t = tiny_machine()
        t.add_node("m/gpu9", NodeKind.GPU, machine="m", socket="m/s0", gpu_index=0)
        t.add_edge("m/gpu9", "m/s0", 1.0, LinkSpec.pcie())
        with pytest.raises(TopologyError, match="duplicate gpu_index"):
            t.validate()

    def test_disconnected_fails(self):
        t = tiny_machine()
        t.add_node("m2", NodeKind.MACHINE)
        t.add_node("m2/s0", NodeKind.SOCKET, machine="m2")
        t.add_edge("m2/s0", "m2", 20.0, LinkSpec.xbus())
        t.add_node("m2/gpu0", NodeKind.GPU, machine="m2", socket="m2/s0", gpu_index=0)
        t.add_edge("m2/gpu0", "m2/s0", 1.0, LinkSpec.pcie())
        with pytest.raises(TopologyError, match="disconnected"):
            t.validate()


class TestExport:
    def test_to_networkx_roundtrips_structure(self):
        t = tiny_machine()
        g = t.to_networkx()
        assert g.number_of_nodes() == len(t)
        assert g.number_of_edges() == len(list(t.edges()))
        assert g.nodes["m/gpu0"]["kind"] == "gpu"
        assert g.edges["m/gpu0", "m/s0"]["bandwidth_gbs"] == pytest.approx(40.0)
