"""Tests for Algorithm 3: utility-based job-graph bipartitioning."""

import pytest

from repro.core.job_bipartition import ExternalRegion, job_graph_bipartition
from repro.workload.jobgraph import JobGraph, data_parallel_graph, model_parallel_chain

from tests.conftest import make_job


def split(minsky, alloc, job, graph, p0, p1, co=None, external=()):
    return job_graph_bipartition(
        minsky,
        alloc,
        job,
        graph,
        list(graph.tasks()),
        p0,
        p1,
        co or {},
        external=external,
    )


class TestCapacity:
    def test_never_overfills_a_side(self, minsky, alloc):
        job = make_job(num_gpus=3)
        graph = data_parallel_graph(job)
        a0, a1 = split(
            minsky, alloc, job,
            graph,
            ["m0/gpu0", "m0/gpu1"],
            ["m0/gpu2"],
        )
        assert len(a0) <= 2 and len(a1) <= 1
        assert sorted(a0 + a1) == [0, 1, 2]

    def test_too_many_tasks_rejected(self, minsky, alloc):
        job = make_job(num_gpus=3)
        graph = data_parallel_graph(job)
        with pytest.raises(ValueError, match="cannot fit"):
            split(minsky, alloc, job, graph, ["m0/gpu0"], ["m0/gpu1"])


class TestCommunicationPull:
    def test_clique_stays_together(self, minsky, alloc):
        """A communication-heavy clique must land on one side."""
        job = make_job(num_gpus=2, batch_size=1)
        graph = data_parallel_graph(job)
        a0, a1 = split(
            minsky, alloc, job, graph,
            ["m0/gpu0", "m0/gpu1"],
            ["m0/gpu2", "m0/gpu3"],
        )
        assert (len(a0), len(a1)) in ((2, 0), (0, 2))

    def test_zero_comm_tasks_fill_used_side_first(self, minsky, alloc):
        """Without communication, fragmentation drives the choice."""
        alloc.allocate("other", ["m0/gpu1"])  # socket0 partially used
        job = make_job(num_gpus=1)
        graph = JobGraph(1)  # no edges
        a0, a1 = split(
            minsky, alloc, job, graph, ["m0/gpu0"], ["m0/gpu2", "m0/gpu3"]
        )
        assert a0 == (0,)  # socket0 fills up, socket1 stays whole

    def test_external_region_attracts_connected_task(self, minsky, alloc):
        """A task linked to an ancestor-fixed region moves toward it."""
        job = make_job(num_gpus=2)
        graph = model_parallel_chain(2, weight=4.0)
        # task 1 already fixed near socket1 by an ancestor split
        external = (ExternalRegion(tasks=(1,), gpus=("m0/gpu2", "m0/gpu3")),)
        a0, a1 = job_graph_bipartition(
            minsky,
            alloc,
            job,
            graph,
            [0],
            ["m0/gpu0", "m0/gpu1"],
            ["m0/gpu2", "m0/gpu3"],
            {},
            external=external,
        )
        assert a1 == (0,)  # pulled toward its chain partner


class TestInterferenceAvoidance:
    def test_prefers_quiet_side(self, minsky, alloc):
        noisy = make_job("noisy", batch_size=1)
        alloc.allocate("noisy", ["m0/gpu0"])
        co = {"noisy": (noisy, frozenset(["m0/gpu0"]))}
        job = make_job("j", num_gpus=1, batch_size=1)
        graph = JobGraph(1)
        a0, a1 = split(
            minsky, alloc, job, graph, ["m0/gpu1"], ["m0/gpu2", "m0/gpu3"], co
        )
        # side0 shares socket/DRAM with the noisy job; fragmentation
        # prefers it but interference must win for a tiny-batch job
        assert a1 == (0,)


class TestDeterminism:
    def test_heaviest_tasks_anchor_first(self, minsky, alloc):
        job = make_job(num_gpus=3)
        graph = JobGraph(3, [(0, 1, 1.0), (1, 2, 5.0)])
        a0a, a1a = split(
            minsky, alloc, job, graph, ["m0/gpu0", "m0/gpu1"], ["m0/gpu2", "m0/gpu3"]
        )
        a0b, a1b = split(
            minsky, alloc, job, graph, ["m0/gpu0", "m0/gpu1"], ["m0/gpu2", "m0/gpu3"]
        )
        assert (a0a, a1a) == (a0b, a1b)
        # the heavy pair (1,2) must share a side
        same_side = any({1, 2} <= set(side) for side in (a0a, a1a))
        assert same_side
