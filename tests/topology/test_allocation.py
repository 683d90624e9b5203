"""Tests for allocation bookkeeping, fragmentation and link sharing."""

import pytest

from repro.topology.allocation import AllocationError, AllocationState
from repro.topology.builders import cluster, dgx1, power8_pcie_k80


class TestAllocateRelease:
    def test_basic_cycle(self, alloc):
        alloc.allocate("j1", ["m0/gpu0", "m0/gpu1"])
        assert alloc.gpus_of("j1") == {"m0/gpu0", "m0/gpu1"}
        assert alloc.owner_of("m0/gpu0") == "j1"
        assert not alloc.is_free("m0/gpu0")
        released = alloc.release("j1")
        assert released == {"m0/gpu0", "m0/gpu1"}
        assert alloc.is_free("m0/gpu0")

    def test_double_allocation_rejected(self, alloc):
        alloc.allocate("j1", ["m0/gpu0"])
        with pytest.raises(AllocationError, match="already held"):
            alloc.allocate("j2", ["m0/gpu0"])

    def test_job_cannot_allocate_twice(self, alloc):
        alloc.allocate("j1", ["m0/gpu0"])
        with pytest.raises(AllocationError, match="already has"):
            alloc.allocate("j1", ["m0/gpu1"])

    def test_empty_allocation_rejected(self, alloc):
        with pytest.raises(AllocationError, match="empty"):
            alloc.allocate("j1", [])

    def test_non_gpu_rejected(self, alloc):
        with pytest.raises(AllocationError, match="not a GPU"):
            alloc.allocate("j1", ["m0/s0"])

    def test_release_unknown_rejected(self, alloc):
        with pytest.raises(AllocationError, match="no allocation"):
            alloc.release("ghost")

    def test_failed_allocation_leaves_state_clean(self, alloc):
        alloc.allocate("j1", ["m0/gpu0"])
        with pytest.raises(AllocationError):
            alloc.allocate("j2", ["m0/gpu1", "m0/gpu0"])
        # j2 must not hold gpu1 after the failure
        assert alloc.is_free("m0/gpu1")


class TestCounts:
    def test_free_count_tracks_mutations(self, alloc):
        assert alloc.free_count("m0") == 4
        alloc.allocate("j1", ["m0/gpu0", "m0/gpu2"])
        assert alloc.free_count("m0") == 2
        alloc.release("j1")
        assert alloc.free_count("m0") == 4

    def test_free_count_matches_free_gpus(self, alloc):
        alloc.allocate("j1", ["m0/gpu1"])
        assert alloc.free_count("m0") == len(alloc.free_gpus(machine="m0")) == 3

    def test_max_free_count(self):
        topo = cluster(2)
        state = AllocationState(topo)
        state.allocate("j", topo.gpus(machine="m0"))
        assert state.max_free_count() == 4

    def test_utilization(self, alloc):
        assert alloc.utilization() == 0.0
        alloc.allocate("j1", ["m0/gpu0"])
        assert alloc.utilization() == 0.25

    def test_jobs_on_machine(self, alloc):
        alloc.allocate("j1", ["m0/gpu0"])
        assert alloc.jobs_on_machine("m0") == {"j1"}
        alloc.release("j1")
        assert alloc.jobs_on_machine("m0") == frozenset()


class TestFragmentation:
    def test_empty_machine_fully_free(self, alloc):
        assert alloc.fragmentation() == 1.0

    def test_socket_free_fraction(self, alloc):
        alloc.allocate("j1", ["m0/gpu0"])
        assert alloc.socket_free_fraction("m0/s0") == 0.5
        assert alloc.socket_free_fraction("m0/s1") == 1.0
        assert alloc.fragmentation() == 0.75

    def test_snapshot_sweep_matches_per_call_counts(self):
        # a mixed fleet, every third GPU taken: sockets differ in size
        # and occupancy from machine to machine
        topo = cluster(
            6,
            lambda mid: (dgx1 if int(mid[1:]) % 2 else power8_pcie_k80)(mid),
        )
        alloc = AllocationState(topo)
        for i, gpu in enumerate(topo.gpus()[::3]):
            alloc.allocate(f"j{i}", [gpu])
        fractions = alloc.socket_free_fractions()
        assert list(fractions) == topo.sockets()
        for machine in (None, *topo.machines()):
            assert alloc.fragmentation(machine, fractions) == (
                alloc.fragmentation(machine)
            )


class TestLinksAndSharing:
    def test_links_include_dram_domain(self, alloc):
        links = alloc.links_used(["m0/gpu0"])
        assert ("dram", "m0/s0") in links

    def test_packed_pair_links_stay_local(self, alloc):
        links = alloc.links_used(["m0/gpu0", "m0/gpu1"])
        assert not any("m0/s1" in str(k) for k in links)

    def test_spread_pair_crosses_xbus(self, alloc):
        links = alloc.links_used(["m0/gpu0", "m0/gpu2"])
        assert ("m0", "m0/s0") in links and ("m0", "m0/s1") in links

    def test_sharing_zero_for_disjoint_sockets(self, alloc):
        a = ["m0/gpu0", "m0/gpu1"]
        b = ["m0/gpu2", "m0/gpu3"]
        assert alloc.link_sharing_factor(a, b) == 0.0

    def test_sharing_positive_same_socket(self, alloc):
        assert alloc.link_sharing_factor(["m0/gpu0"], ["m0/gpu1"]) > 0.0

    def test_sharing_high_for_interleaved(self, alloc):
        a = ["m0/gpu0", "m0/gpu2"]
        b = ["m0/gpu1", "m0/gpu3"]
        assert alloc.link_sharing_factor(a, b) >= 0.5

    def test_sharing_zero_across_machines(self):
        topo = cluster(2)
        state = AllocationState(topo)
        assert state.link_sharing_factor(["m0/gpu0"], ["m1/gpu0"]) == 0.0
