"""Tests for the ASCII topology renderer."""

from repro.topology.builders import dgx2
from repro.topology.render import render_gpu_distances, render_tree


class TestRenderTree:
    def test_minsky_structure(self, minsky):
        text = render_tree(minsky)
        assert text.splitlines()[0] == "power8-minsky[m0]"
        assert "m0/s0" in text and "m0/s1" in text
        assert "NVLink x2 (40 GB/s)" in text
        assert "xbus (38.4 GB/s)" in text
        assert "peer links:" in text
        assert "m0/gpu0 <-> m0/gpu1" in text

    def test_every_gpu_appears(self, dgx):
        text = render_tree(dgx)
        for g in dgx.gpus():
            assert g in text

    def test_cluster_has_network_root(self, small_cluster):
        text = render_tree(small_cluster)
        lines = text.splitlines()
        assert lines[1].endswith("net")
        assert "network (12.5 GB/s)" in text

    def test_switches_rendered(self, dgx):
        text = render_tree(dgx)
        assert "m0/s0/sw0" in text and "pcie (16.0 GB/s)" in text

    def test_dgx2_fabric_listed(self):
        text = render_tree(dgx2())
        assert "m0/nvswitch" in text


class TestRenderDistances:
    def test_matrix_shape_and_values(self, minsky):
        text = render_gpu_distances(minsky)
        lines = text.splitlines()
        assert len(lines) == 5  # header + 4 GPUs
        assert "42" in text and " 1" in text

    def test_per_machine_filter(self, small_cluster):
        text = render_gpu_distances(small_cluster, machine="m1")
        assert len(text.splitlines()) == 5

    def test_no_gpus(self):
        from repro.topology.graph import NodeKind, TopologyGraph

        topo = TopologyGraph()
        topo.add_node("m", NodeKind.MACHINE)
        assert render_gpu_distances(topo) == "(no GPUs)"
