"""Tests for host filtering (filterHostsByConstraints)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.constraints import (
    CandidatePool,
    CandidatePrefilter,
    PrefilterStats,
    filter_hosts,
    machine_bus_capacity,
)
from repro.topology.allocation import AllocationState
from repro.topology.builders import cluster, dgx1, power8_pcie_k80

from tests.conftest import make_job


class TestCapacityFilter:
    def test_empty_machine_eligible(self, minsky, alloc):
        pools = filter_hosts(minsky, alloc, make_job(num_gpus=2))
        assert len(pools) == 1
        assert len(pools[0].gpus) == 4

    def test_insufficient_gpus_filtered(self, minsky, alloc):
        alloc.allocate("x", ["m0/gpu0", "m0/gpu1", "m0/gpu2"])
        assert filter_hosts(minsky, alloc, make_job(num_gpus=2)) == []

    def test_pool_contains_only_free_gpus(self, minsky, alloc):
        alloc.allocate("x", ["m0/gpu0"])
        pools = filter_hosts(minsky, alloc, make_job(num_gpus=2))
        assert "m0/gpu0" not in pools[0].gpus

    def test_tightest_machine_first(self):
        topo = cluster(2)
        alloc = AllocationState(topo)
        alloc.allocate("x", ["m0/gpu0", "m0/gpu1"])
        pools = filter_hosts(topo, alloc, make_job(num_gpus=2))
        assert pools[0].machines == ("m0",)  # 2 free, tighter than m1's 4


class TestBandwidthConstraint:
    def test_saturated_machine_filtered(self, minsky, alloc, profiles):
        """t_bw <= p_bw: enough tiny-batch jobs exhaust the bus budget."""
        capacity = machine_bus_capacity(minsky, "m0")
        co = {}
        demand_each = profiles.for_job(make_job(batch_size=1)).avg_demand_gbs
        n_needed = int(capacity / demand_each) + 1
        # synthetic co-runners that each burn one GPU's worth of demand
        for i in range(2):
            job = make_job(f"busy{i}", batch_size=1, num_gpus=1)
            alloc.allocate(f"busy{i}", [f"m0/gpu{i}"])
            co[f"busy{i}"] = (job, frozenset([f"m0/gpu{i}"]))
        if n_needed <= 2:
            assert filter_hosts(minsky, alloc, make_job(batch_size=1)) == []
        else:
            # capacity still available: machine stays eligible
            assert filter_hosts(minsky, alloc, make_job(batch_size=1)) != []

    def test_bus_capacity_value(self, minsky):
        # 4 GPUs x dual NVLink uplink (40 GB/s)
        assert machine_bus_capacity(minsky, "m0") == pytest.approx(160.0)

    def test_capacity_memo_dies_with_its_graph(self):
        """A new graph at a freed graph's address gets its own
        capacities, not the dead graph's."""
        for _ in range(50):
            dgx = dgx1()
            assert machine_bus_capacity(dgx, "m0") == pytest.approx(128.0)
            del dgx
            k80 = power8_pcie_k80()
            assert machine_bus_capacity(k80, "m0") == pytest.approx(64.0)

    def test_capacity_memo_cleared_by_merge(self):
        topo = cluster(1)
        assert machine_bus_capacity(topo, "m1") == 0.0  # no such machine yet
        topo.merge(dgx1("m1"))
        assert machine_bus_capacity(topo, "m1") == pytest.approx(128.0)


class TestAntiCollocation:
    def test_needs_distinct_sockets(self, minsky, alloc):
        alloc.allocate("x", ["m0/gpu2", "m0/gpu3"])  # socket1 gone
        job = make_job(num_gpus=2, anti_collocation=True)
        assert filter_hosts(minsky, alloc, job) == []

    def test_eligible_with_free_domains(self, minsky, alloc):
        job = make_job(num_gpus=2, anti_collocation=True)
        assert len(filter_hosts(minsky, alloc, job)) == 1


class TestSpanningPools:
    def test_single_node_job_never_spans(self, small_cluster):
        alloc = AllocationState(small_cluster)
        for m in small_cluster.machines():
            alloc.allocate(f"fill-{m}", small_cluster.gpus(machine=m)[:3])
        job = make_job(num_gpus=2, single_node=True)
        assert filter_hosts(small_cluster, alloc, job) == []

    def test_multi_node_job_gets_spanning_pool(self, small_cluster):
        alloc = AllocationState(small_cluster)
        for m in small_cluster.machines():
            alloc.allocate(f"fill-{m}", small_cluster.gpus(machine=m)[:3])
        job = make_job(num_gpus=2, single_node=False)
        pools = filter_hosts(small_cluster, alloc, job)
        assert len(pools) == 1 and pools[0].spans_machines
        assert len(pools[0].gpus) >= 2

    def test_spanning_pool_not_offered_when_one_machine_fits(self, small_cluster):
        alloc = AllocationState(small_cluster)
        job = make_job(num_gpus=2, single_node=False)
        pools = filter_hosts(small_cluster, alloc, job)
        assert all(not p.spans_machines for p in pools)

    def test_cluster_truly_full_returns_empty(self, small_cluster):
        alloc = AllocationState(small_cluster)
        for m in small_cluster.machines():
            alloc.allocate(f"fill-{m}", small_cluster.gpus(machine=m))
        job = make_job(num_gpus=2, single_node=False)
        assert filter_hosts(small_cluster, alloc, job) == []


class TestPrefilter:
    """Top-k fast path: same pool prefix as the exhaustive scan."""

    @settings(max_examples=25, deadline=None)
    @given(
        taken=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=9),  # machine
                st.integers(min_value=1, max_value=4),  # gpus taken
            ),
            max_size=12,
        ),
        need=st.integers(min_value=1, max_value=4),
        top_k=st.integers(min_value=1, max_value=10),
    )
    def test_prefix_identical_to_exhaustive(self, taken, need, top_k):
        """Capacity dominance: for any fleet state and any k, the
        prefiltered result equals the first k pools of the exhaustive
        scan — so a caller consuming at most k pools (the engine) can
        never see a different candidate set."""
        topo = cluster(10)
        alloc = AllocationState(topo)
        for i, (m_idx, n) in enumerate(taken):
            machine = f"m{m_idx}"
            free = alloc.free_gpus(machine=machine)
            if free:
                alloc.allocate(f"t{i}", free[: min(n, len(free))])
        job = make_job(num_gpus=need)
        full = filter_hosts(topo, alloc, job)
        fast = filter_hosts(
            topo, alloc, job, prefilter=CandidatePrefilter(top_k)
        )
        assert fast == full[:top_k]

    def test_engine_budget_never_loses_the_exhaustive_pick(self):
        """Adaptive k (= the engine's ``max_pools``): the host the
        exhaustive scan would hand the engine is always in the
        prefiltered set, so the proposal is bit-identical."""
        from tests.core.exhaustive import ExhaustiveHostEngine
        from repro.core.placement import PlacementEngine

        topo = cluster(12)
        alloc_a = AllocationState(topo)
        alloc_b = AllocationState(topo)
        # fragment the fleet so tightest-fit ordering actually matters
        for i in range(8):
            gpus = topo.gpus(machine=f"m{i}")[: (i % 4) + 1]
            alloc_a.allocate(f"f{i}", gpus)
            alloc_b.allocate(f"f{i}", gpus)
        fast = PlacementEngine(topo, alloc_a)
        slow = ExhaustiveHostEngine(topo, alloc_b)
        assert fast.prefilter.top_k == fast.max_pools
        for need in (1, 2, 3, 4):
            job = make_job(f"probe{need}", num_gpus=need)
            a = fast.propose(job, {})
            b = slow.propose(job, {})
            assert (a is None) == (b is None)
            if a is not None:
                assert a.gpus == b.gpus
                assert a.utility == b.utility

    def test_spanning_pool_identical(self, small_cluster):
        alloc = AllocationState(small_cluster)
        for m in small_cluster.machines():
            alloc.allocate(f"fill-{m}", small_cluster.gpus(machine=m)[:3])
        job = make_job(num_gpus=2, single_node=False)
        full = filter_hosts(small_cluster, alloc, job)
        fast = filter_hosts(
            small_cluster, alloc, job, prefilter=CandidatePrefilter(8)
        )
        assert fast == full
        assert fast[0].spans_machines

    def test_stats_and_report_account_for_skipped_hosts(self):
        topo = cluster(10)
        alloc = AllocationState(topo)
        stats = PrefilterStats()
        report = {}
        job = make_job(num_gpus=1)
        pools = filter_hosts(
            topo, alloc, job,
            report=report,
            prefilter=CandidatePrefilter(2, stats),
        )
        assert len(pools) == 2  # probing stopped at k survivors
        assert stats.calls == 1
        assert stats.considered == 2
        assert stats.pruned == 8  # capacity-eligible but never probed
        assert report["prefilter"] == {"k": 2, "considered": 2, "pruned": 8}
        assert report["pruned"]["prefilter"] == 8
        assert stats.as_dict()["prune_rate"] == pytest.approx(0.8)

    def test_readonly_clone_counts_nothing(self):
        stats = PrefilterStats()
        pf = CandidatePrefilter(4, stats)
        clone = pf.readonly()
        assert clone.top_k == 4
        clone.note(10, 5)
        assert stats.calls == 0 and stats.considered == 0

    def test_top_k_must_be_positive(self):
        with pytest.raises(ValueError, match="top_k"):
            CandidatePrefilter(0)


class TestCandidatePool:
    def test_spans_machines_flag(self):
        single = CandidatePool(machines=("m0",), gpus=("m0/gpu0",))
        multi = CandidatePool(machines=("m0", "m1"), gpus=("m0/gpu0", "m1/gpu0"))
        assert not single.spans_machines
        assert multi.spans_machines
