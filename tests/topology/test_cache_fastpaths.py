"""Cache fast paths must be invisible: warm and cold graphs agree.

Covers the shape- and name-keyed widest-path caches, validate-before-cache
lookups, the P2P island cache, and the AllocationState epoch counter /
state digest / bounded links cache behind the placement memo.
"""

from __future__ import annotations

import pytest

import repro.topology.allocation as allocation_mod
import repro.topology.graph as graph_mod
from repro.topology.allocation import AllocationState
from repro.topology.builders import (
    cluster,
    dgx1,
    dgx2,
    machine,
    power8_minsky,
    power8_pcie_k80,
    power9_ac922,
)
from repro.topology.graph import TopologyError
from repro.topology.links import LinkSpec


# ----------------------------------------------------------------------
# P2P island cache
# ----------------------------------------------------------------------
BUILDERS = [power8_minsky, dgx1, power8_pcie_k80, power9_ac922, dgx2, machine]


class TestP2PIslandCache:
    @pytest.mark.parametrize("builder", BUILDERS, ids=lambda b: b.__name__)
    def test_cached_equals_scan(self, builder):
        topo = cluster(3, builder)
        for scope in [None, *topo.machines()]:
            first = topo.p2p_island_sizes(scope)
            assert first == topo._scan_p2p_islands(scope)
            assert topo.p2p_island_sizes(scope) == first  # warm

    def test_returned_list_is_a_copy(self):
        topo = cluster(2)
        sizes = topo.p2p_island_sizes()
        expected = list(sizes)
        sizes.clear()
        sizes.append(99)
        assert topo.p2p_island_sizes() == expected

    def test_graph_mutation_clears_cache(self):
        topo = machine("m0", peer_link=None)
        assert topo.p2p_island_sizes() == [1, 1, 1, 1]
        topo.add_edge("m0/gpu0", "m0/gpu1", 1.0, LinkSpec.nvlink(1))
        assert topo.p2p_island_sizes() == [2, 1, 1]
        topo.add_node("m0/gpu9", graph_mod.NodeKind.GPU, machine="m0",
                      socket="m0/s1", gpu_index=9)
        topo.add_edge("m0/gpu9", "m0/s1", 1.0, LinkSpec.nvlink(2))
        assert topo.p2p_island_sizes() == [2, 1, 1, 1]


# ----------------------------------------------------------------------
# widest-path and shortest-path caches
# ----------------------------------------------------------------------
class TestPathCaches:
    def test_widest_cache_keys_are_scope_tuples(self):
        topo = cluster(2)
        gpus0 = topo.gpus(machine=topo.machines()[0])
        gpus1 = topo.gpus(machine=topo.machines()[1])
        # same source, one same-machine query (machine scope: the
        # shape's table, keyed by shape id and relative name) and one
        # cross-machine query (unscoped: keyed by name): distinct cache
        # entries, no string-concatenation collision
        same = topo.bottleneck_bandwidth(gpus0[0], gpus0[1])
        cross = topo.bottleneck_bandwidth(gpus0[0], gpus1[0])
        assert same > 0 and cross > 0
        assert set(topo._caches.widest) == {gpus0[0]}
        shape_id = topo.machine_shape_id(topo.machines()[0])
        assert set(topo._shape_widest) == {(shape_id, "gpu0")}
        # cached answers replay identically
        assert topo.bottleneck_bandwidth(gpus0[0], gpus0[1]) == same
        assert topo.bottleneck_bandwidth(gpus0[0], gpus1[0]) == cross

    def test_bottleneck_unknown_node_raises_even_after_warm(self, minsky):
        gpus = minsky.gpus()
        minsky.bottleneck_bandwidth(gpus[0], gpus[1])
        with pytest.raises(TopologyError):
            minsky.bottleneck_bandwidth(gpus[0], "nope")
        with pytest.raises(TopologyError):
            minsky.bottleneck_bandwidth("nope", gpus[0])

    def test_shortest_path_validates_before_cache(self, minsky):
        gpus = minsky.gpus()
        path = minsky.shortest_path(gpus[0], gpus[1])
        assert path[0] == gpus[0] and path[-1] == gpus[1]
        # a warm (u, v) cache entry must not mask unknown-node errors
        with pytest.raises(TopologyError):
            minsky.shortest_path(gpus[0], "ghost")
        with pytest.raises(TopologyError):
            minsky.shortest_path("ghost", gpus[1])
        assert minsky.shortest_path(gpus[0], gpus[1]) == path


# ----------------------------------------------------------------------
# AllocationState epochs, digest, bounded links cache
# ----------------------------------------------------------------------
class TestAllocationEpochs:
    def test_every_mutator_bumps_version(self):
        topo = cluster(2)
        alloc = AllocationState(topo)
        v0 = alloc.version
        alloc.allocate("j", topo.gpus()[:2])
        assert alloc.version == v0 + 1
        alloc.release("j")
        assert alloc.version == v0 + 2
        down = topo.machines()[0]
        alloc.set_machine_down(down)
        assert alloc.version == v0 + 3
        alloc.set_machine_up(down)
        assert alloc.version == v0 + 4

    def test_health_heartbeats_do_not_bump_version(self):
        # a daemon re-asserting machine health must not rotate the
        # epoch: the effective pool is unchanged, caches stay warm
        topo = cluster(2)
        alloc = AllocationState(topo)
        up = topo.machines()[0]
        v0 = alloc.version
        alloc.set_machine_up(up)  # already up
        assert alloc.version == v0
        alloc.set_machine_down(up)
        v1 = alloc.version
        assert v1 == v0 + 1
        assert alloc.set_machine_down(up) == []  # already down
        assert alloc.version == v1
        alloc.set_machine_up(up)
        assert alloc.version == v1 + 1

    def test_digest_names_the_state_not_the_history(self):
        topo = cluster(2)
        gpus = topo.gpus()
        a, b = AllocationState(topo), AllocationState(topo)
        a.allocate("x", gpus[:2])
        a.allocate("y", gpus[4:5])
        # same end state via a different history
        b.allocate("y", gpus[4:5])
        b.allocate("z", gpus[6:8])
        b.allocate("x", gpus[:2])
        b.release("z")
        assert a.digest == b.digest
        assert a.version != b.version

    def test_digest_pins_gpu_identity(self):
        # equal free counts on different GPUs are different states
        topo = cluster(2)
        gpus = topo.gpus(machine=topo.machines()[0])
        a, b = AllocationState(topo), AllocationState(topo)
        a.allocate("x", gpus[:1])
        b.allocate("x", gpus[1:2])
        assert a.free_count(topo.machines()[0]) == b.free_count(
            topo.machines()[0]
        )
        assert a.digest != b.digest

    def test_digest_pins_owner(self):
        topo = cluster(2)
        a, b = AllocationState(topo), AllocationState(topo)
        a.allocate("x", topo.gpus()[:1])
        b.allocate("y", topo.gpus()[:1])
        assert a.digest != b.digest

    def test_machine_down_up_restores_digest(self):
        topo = cluster(2)
        alloc = AllocationState(topo)
        alloc.allocate("x", topo.gpus()[:1])
        d0 = alloc.digest
        m = topo.machines()[1]
        alloc.set_machine_down(m)
        assert alloc.digest != d0
        alloc.set_machine_up(m)
        assert alloc.digest == d0

    def test_health_heartbeat_leaves_digest(self):
        topo = cluster(2)
        alloc = AllocationState(topo)
        up, down = topo.machines()
        alloc.set_machine_down(down)
        d0 = alloc.digest
        alloc.set_machine_up(up)  # already up
        alloc.set_machine_down(down)  # already down
        assert alloc.digest == d0

    def test_reads_do_not_bump_version(self):
        topo = cluster(2)
        alloc = AllocationState(topo)
        v0 = alloc.version
        alloc.free_gpus()
        alloc.max_free_count()
        alloc.total_free_count()
        alloc.links_used(topo.gpus()[:2])
        assert alloc.version == v0

    def test_links_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(allocation_mod, "LINKS_CACHE_MAX", 4)
        topo = cluster(2)
        alloc = AllocationState(topo)
        gpus = topo.gpus()
        for i in range(len(gpus)):
            for j in range(i + 1, len(gpus)):
                alloc.links_used([gpus[i], gpus[j]])
        assert len(alloc._links_cache) <= 4
        # evicted entries recompute to the same answer
        expected = AllocationState(topo).links_used(gpus[:2])
        assert alloc.links_used(gpus[:2]) == expected
