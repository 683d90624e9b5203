"""Tests for Dual Recursive Bipartitioning (Algorithm 2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.drb import drb_map
from repro.topology.allocation import AllocationState
from repro.topology.builders import dgx1
from repro.workload.jobgraph import data_parallel_graph, model_parallel_chain

from tests.conftest import make_job


def run_drb(topo, job, pool=None, co=None, alloc=None, graph=None):
    alloc = alloc or AllocationState(topo)
    graph = graph or data_parallel_graph(job)
    return drb_map(topo, alloc, job, graph, pool or topo.gpus(), co or {})


class TestMappingValidity:
    def test_injective_and_complete(self, minsky):
        job = make_job(num_gpus=4)
        mapping = run_drb(minsky, job)
        assert sorted(mapping) == [0, 1, 2, 3]
        assert len(set(mapping.values())) == 4

    def test_pool_too_small_rejected(self, minsky):
        job = make_job(num_gpus=3)
        with pytest.raises(ValueError, match="pool"):
            run_drb(minsky, job, pool=["m0/gpu0", "m0/gpu1"])

    def test_single_task_single_gpu(self, minsky):
        job = make_job(num_gpus=1)
        mapping = run_drb(minsky, job, pool=["m0/gpu2"])
        assert mapping == {0: "m0/gpu2"}


class TestPlacementQuality:
    def test_two_tasks_pack_on_a_socket(self, minsky):
        job = make_job(num_gpus=2, batch_size=1)
        mapping = run_drb(minsky, job)
        gpus = sorted(mapping.values())
        assert minsky.socket_of(gpus[0]) == minsky.socket_of(gpus[1])

    def test_dgx_quad_lands_on_one_socket(self, dgx):
        job = make_job(num_gpus=4, batch_size=1)
        mapping = run_drb(dgx, job)
        sockets = {dgx.socket_of(g) for g in mapping.values()}
        assert len(sockets) == 1

    def test_cluster_job_stays_on_one_machine(self, small_cluster):
        job = make_job(num_gpus=4, batch_size=1)
        mapping = run_drb(small_cluster, job)
        machines = {small_cluster.machine_of(g) for g in mapping.values()}
        assert len(machines) == 1

    def test_avoids_noisy_socket(self, minsky):
        alloc = AllocationState(minsky)
        noisy = make_job("noisy", batch_size=1, num_gpus=1)
        alloc.allocate("noisy", ["m0/gpu0"])
        co = {"noisy": (noisy, frozenset(["m0/gpu0"]))}
        job = make_job("j", num_gpus=2, batch_size=1)
        mapping = run_drb(
            minsky, job, pool=["m0/gpu1", "m0/gpu2", "m0/gpu3"], co=co, alloc=alloc
        )
        assert sorted(mapping.values()) == ["m0/gpu2", "m0/gpu3"]

    def test_chain_keeps_heaviest_pair_together(self, minsky):
        """Algorithm 3 is greedy by descending degree: the middle pair
        of a 4-task chain (the heaviest communicators) must share a
        socket, whatever happens to the chain's endpoints."""
        job = make_job(num_gpus=4)
        graph = model_parallel_chain(4, weight=4.0)
        mapping = run_drb(minsky, job, graph=graph)
        socket_of_task = {
            t: minsky.socket_of(g) for t, g in mapping.items()
        }
        assert socket_of_task[1] == socket_of_task[2]
        # and the split is 2+2, not 3+1
        from collections import Counter

        sizes = sorted(Counter(socket_of_task.values()).values())
        assert sizes == [2, 2]


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        n_tasks=st.integers(min_value=1, max_value=8),
        batch=st.sampled_from([1, 4, 32, 128]),
    )
    def test_mapping_valid_on_dgx(self, n_tasks, batch):
        topo = dgx1()
        job = make_job(num_gpus=n_tasks, batch_size=batch)
        mapping = run_drb(topo, job)
        assert sorted(mapping) == list(range(n_tasks))
        gpus = list(mapping.values())
        assert len(set(gpus)) == n_tasks
        assert all(g in topo.gpus() for g in gpus)

    @settings(max_examples=20, deadline=None)
    @given(
        busy=st.sets(st.integers(min_value=0, max_value=7), max_size=5),
        n_tasks=st.integers(min_value=1, max_value=3),
    )
    def test_mapping_only_uses_pool(self, busy, n_tasks):
        topo = dgx1()
        all_gpus = topo.gpus()
        pool = [g for i, g in enumerate(all_gpus) if i not in busy]
        if len(pool) < n_tasks:
            return
        job = make_job(num_gpus=n_tasks)
        mapping = run_drb(topo, job, pool=pool)
        assert set(mapping.values()) <= set(pool)

