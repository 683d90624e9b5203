"""Tests for hierarchy-guided physical bipartitioning."""

import pytest

from repro.core.bipartition import gpu_affinity, physical_bipartition
from repro.topology.builders import machine
from repro.topology.links import LinkSpec


class TestHierarchySplits:
    def test_minsky_splits_at_socket(self, minsky):
        p0, p1 = physical_bipartition(minsky, minsky.gpus())
        assert {p0, p1} == {
            ("m0/gpu0", "m0/gpu1"),
            ("m0/gpu2", "m0/gpu3"),
        }

    def test_dgx_splits_at_socket(self, dgx):
        p0, p1 = physical_bipartition(dgx, dgx.gpus())
        sockets0 = {dgx.socket_of(g) for g in p0}
        sockets1 = {dgx.socket_of(g) for g in p1}
        assert len(sockets0) == len(sockets1) == 1
        assert sockets0 != sockets1

    def test_cluster_splits_at_machine(self, small_cluster):
        gpus = small_cluster.gpus(machine="m0") + small_cluster.gpus(machine="m1")
        p0, p1 = physical_bipartition(small_cluster, gpus)
        m0 = {small_cluster.machine_of(g) for g in p0}
        m1 = {small_cluster.machine_of(g) for g in p1}
        assert m0 != m1 and len(m0) == len(m1) == 1

    def test_uneven_fragment_keeps_socket_atomic(self, minsky):
        # 3 free GPUs: socket0 intact, socket1 fragmented
        pool = ["m0/gpu0", "m0/gpu1", "m0/gpu3"]
        p0, p1 = physical_bipartition(minsky, pool)
        sides = {p0, p1}
        assert ("m0/gpu0", "m0/gpu1") in sides
        assert ("m0/gpu3",) in sides

    def test_three_machines_grouped_two_one(self, small_cluster):
        p0, p1 = physical_bipartition(small_cluster, small_cluster.gpus())
        machines0 = {small_cluster.machine_of(g) for g in p0}
        machines1 = {small_cluster.machine_of(g) for g in p1}
        assert machines0.isdisjoint(machines1)
        assert {len(machines0), len(machines1)} == {1, 2}


class TestFlatRegions:
    def test_two_gpus_trivial(self, minsky):
        p0, p1 = physical_bipartition(minsky, ["m0/gpu1", "m0/gpu0"])
        assert p0 == ("m0/gpu0",) and p1 == ("m0/gpu1",)

    def test_single_gpu_rejected(self, minsky):
        with pytest.raises(ValueError):
            physical_bipartition(minsky, ["m0/gpu0"])

    def test_flat_clique_balanced_halves(self):
        # one socket, 4 NVLink-cliqued GPUs: FM fallback splits evenly-ish
        topo = machine("mx", sockets=1, gpus_per_socket=4, peer_link=LinkSpec.nvlink(1))
        p0, p1 = physical_bipartition(topo, topo.gpus())
        assert len(p0) + len(p1) == 4
        assert len(p0) >= 1 and len(p1) >= 1

    def test_deterministic(self, dgx):
        a = physical_bipartition(dgx, dgx.gpus())
        b = physical_bipartition(dgx, dgx.gpus())
        assert a == b


class TestAffinity:
    def test_affinity_inverse_distance(self, minsky):
        aff = gpu_affinity(minsky, minsky.gpus())
        assert aff["m0/gpu0"]["m0/gpu1"] == pytest.approx(1.0)  # distance 1
        assert aff["m0/gpu0"]["m0/gpu2"] == pytest.approx(1.0 / 42.0)

    def test_affinity_symmetric(self, dgx):
        aff = gpu_affinity(dgx, dgx.gpus())
        for u, nbrs in aff.items():
            for v, w in nbrs.items():
                assert aff[v][u] == w
