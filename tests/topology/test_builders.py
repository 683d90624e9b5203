"""Structural tests for the paper's machine topologies (Figures 1 and 7)."""

import pytest

from repro.topology.builders import (
    DGX1_NVLINK_PAIRS,
    cluster,
    dgx1,
    machine,
)
from repro.topology.graph import NodeKind
from repro.topology.links import LinkSpec


class TestPower8Minsky:
    def test_counts(self, minsky):
        assert len(minsky.gpus()) == 4
        assert len(minsky.sockets()) == 2
        assert minsky.machines() == ["m0"]

    def test_two_gpus_per_socket(self, minsky):
        for sock in minsky.sockets():
            assert len(minsky.gpus(socket=sock)) == 2

    def test_intra_socket_nvlink_pairs(self, minsky):
        pairs = minsky.nvlink_pairs()
        assert ("m0/gpu0", "m0/gpu1") in pairs
        assert ("m0/gpu2", "m0/gpu3") in pairs
        assert len(pairs) == 2

    def test_intra_socket_distance_much_smaller(self, minsky):
        assert minsky.distance("m0/gpu0", "m0/gpu1") == 1.0
        assert minsky.distance("m0/gpu0", "m0/gpu2") > 40.0

    def test_dual_nvlink_bandwidth(self, minsky):
        assert minsky.bottleneck_bandwidth("m0/gpu0", "m0/gpu1") == pytest.approx(40.0)

    def test_p2p_islands_are_socket_pairs(self, minsky):
        assert minsky.p2p_island_sizes() == [2, 2]


class TestDGX1:
    def test_counts(self, dgx):
        assert len(dgx.gpus()) == 8
        assert len(dgx.sockets()) == 2
        assert len(dgx.nodes(NodeKind.SWITCH)) == 4

    def test_cube_mesh_has_16_nvlink_edges(self, dgx):
        assert len(dgx.nvlink_pairs()) == 16

    def test_every_gpu_has_four_nvlink_ports(self, dgx):
        degree = {g: 0 for g in dgx.gpus()}
        for a, b in dgx.nvlink_pairs():
            degree[a] += 1
            degree[b] += 1
        assert set(degree.values()) == {4}

    def test_socket_quads_are_nvlink_cliques(self, dgx):
        pairs = set(DGX1_NVLINK_PAIRS)
        for base in (0, 4):
            quad = range(base, base + 4)
            for i in quad:
                for j in quad:
                    if i < j:
                        assert (i, j) in pairs or (j, i) in pairs

    def test_gpus_behind_pcie_switches(self, dgx):
        for g in dgx.gpus():
            kinds = {
                dgx.node(n).kind
                for n in dgx.neighbors(g)
            }
            assert NodeKind.SWITCH in kinds

    def test_p2p_island_is_socket_quad(self, dgx):
        assert dgx.p2p_island_sizes()[0] == 4


class TestPCIeK80:
    def test_no_nvlink_anywhere(self, pcie_machine):
        assert pcie_machine.nvlink_pairs() == []

    def test_p2p_via_shared_switch(self, pcie_machine):
        # K80 board: two dies behind one switch
        assert pcie_machine.p2p_connected("m0/gpu0", "m0/gpu1")
        assert not pcie_machine.p2p_connected("m0/gpu0", "m0/gpu2")

    def test_pack_bandwidth_is_pcie(self, pcie_machine):
        assert pcie_machine.bottleneck_bandwidth(
            "m0/gpu0", "m0/gpu1"
        ) == pytest.approx(16.0)


class TestGenericMachine:
    def test_custom_shape(self):
        t = machine("mx", sockets=4, gpus_per_socket=4)
        assert len(t.gpus()) == 16
        assert len(t.sockets()) == 4

    def test_peer_link_forms_cliques(self):
        t = machine("mx", sockets=1, gpus_per_socket=3, peer_link=LinkSpec.nvlink(1))
        assert len(t.nvlink_pairs()) == 3

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            machine(sockets=0)


class TestCluster:
    def test_counts(self, small_cluster):
        assert len(small_cluster.machines()) == 3
        assert len(small_cluster.gpus()) == 12

    def test_machine_names_stable(self, small_cluster):
        assert small_cluster.machines() == ["m0", "m1", "m2"]

    def test_cross_machine_distance_dominates(self, small_cluster):
        intra = small_cluster.distance("m0/gpu0", "m0/gpu2")
        inter = small_cluster.distance("m0/gpu0", "m1/gpu0")
        assert inter > intra

    def test_cross_machine_bandwidth_is_network(self, small_cluster):
        assert small_cluster.bottleneck_bandwidth(
            "m0/gpu0", "m1/gpu0"
        ) == pytest.approx(12.5)

    def test_custom_builder(self):
        t = cluster(2, dgx1)
        assert len(t.gpus()) == 16

    def test_zero_machines_rejected(self):
        with pytest.raises(ValueError):
            cluster(0)
