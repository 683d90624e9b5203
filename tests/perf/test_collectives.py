"""Tests for the mapping-aware collective cost models."""

import pytest

from repro.perf.collectives import (
    best_allreduce_time,
    best_ring_order,
    chain_pipeline_time,
    effective_pair_bandwidth,
    ring_allreduce_time,
    tree_allreduce_time,
)
from repro.perf.model import PerformanceModel
from repro.workload.job import CommPattern, Job, ModelType


class TestPairBandwidth:
    def test_p2p_pair_full_bandwidth(self, minsky):
        assert effective_pair_bandwidth(minsky, "m0/gpu0", "m0/gpu1") == pytest.approx(40.0)

    def test_cross_socket_penalised(self, minsky):
        bw = effective_pair_bandwidth(minsky, "m0/gpu0", "m0/gpu2")
        assert bw < 38.4  # xbus bottleneck times the staging penalty


class TestRing:
    def test_single_gpu_free(self, minsky):
        assert ring_allreduce_time(minsky, ["m0/gpu0"], 2.0) == 0.0

    def test_two_gpu_ring_matches_worst_pair_model(self, minsky):
        t = ring_allreduce_time(minsky, ["m0/gpu0", "m0/gpu1"], 2.0)
        assert t == pytest.approx(2.0 / 40.0)

    def test_ring_order_matters(self, dgx):
        # good ring follows NVLink edges 0-1, 1-5, 5-4, 4-0
        good = ring_allreduce_time(
            dgx, ["m0/gpu0", "m0/gpu1", "m0/gpu5", "m0/gpu4"], 2.0
        )
        # bad ring pairs 0-5 and 1-4 (no direct NVLink)
        bad = ring_allreduce_time(
            dgx, ["m0/gpu0", "m0/gpu5", "m0/gpu1", "m0/gpu4"], 2.0
        )
        assert good < bad

    def test_best_ring_order_finds_nvlink_cycle(self, dgx):
        gpus = ["m0/gpu0", "m0/gpu1", "m0/gpu4", "m0/gpu5"]
        order = best_ring_order(dgx, gpus)
        t = ring_allreduce_time(dgx, order, 2.0)
        # as cheap as the hand-built NVLink ring
        assert t == pytest.approx(
            ring_allreduce_time(dgx, ["m0/gpu0", "m0/gpu1", "m0/gpu5", "m0/gpu4"], 2.0)
        )

    def test_cost_grows_with_members(self, dgx):
        quad = dgx.gpus()[:4]
        pair = quad[:2]
        assert ring_allreduce_time(
            dgx, best_ring_order(dgx, quad), 2.0
        ) > ring_allreduce_time(dgx, pair, 2.0)

    def test_validation(self, minsky):
        with pytest.raises(ValueError):
            ring_allreduce_time(minsky, [], 2.0)
        with pytest.raises(ValueError):
            ring_allreduce_time(minsky, ["m0/gpu0", "m0/gpu1"], -1.0)


class TestTreeAndBest:
    def test_tree_time_positive(self, minsky):
        t = tree_allreduce_time(minsky, ["m0/gpu0", "m0/gpu1"], 2.0)
        assert t == pytest.approx(2 * 2.0 / 40.0)

    def test_best_picks_cheaper(self, dgx):
        quad = dgx.gpus()[:4]
        t, algo = best_allreduce_time(dgx, quad, 2.0)
        ring = ring_allreduce_time(dgx, best_ring_order(dgx, quad), 2.0)
        tree = tree_allreduce_time(dgx, quad, 2.0)
        assert t == pytest.approx(min(ring, tree))
        assert algo in ("ring", "tree")


class TestChainPipeline:
    def test_pipeline_limited_by_slowest_stage_link(self, minsky):
        # stages 0-1 on socket0 NVLink, 1-2 crossing the X-bus
        t = chain_pipeline_time(minsky, ["m0/gpu0", "m0/gpu1", "m0/gpu2"], 3.0)
        cross = effective_pair_bandwidth(minsky, "m0/gpu1", "m0/gpu2")
        assert t == pytest.approx(3.0 / cross)

    def test_single_stage_free(self, minsky):
        assert chain_pipeline_time(minsky, ["m0/gpu0"], 3.0) == 0.0


class TestModelParallelIntegration:
    def test_chain_job_charged_by_stage_order(self, minsky):
        perf = PerformanceModel(minsky)
        job = Job(
            "mp", ModelType.ALEXNET, 1, 4,
            comm_pattern=CommPattern.MODEL_PARALLEL_CHAIN,
        )
        # contiguous stage order: one X-bus crossing
        good = perf.iteration_time(job, ["m0/gpu0", "m0/gpu1", "m0/gpu2", "m0/gpu3"])
        # interleaved: every hop crosses the X-bus
        bad = perf.iteration_time(job, ["m0/gpu0", "m0/gpu2", "m0/gpu1", "m0/gpu3"])
        assert good <= bad

    def test_model_parallel_costs_more_than_data_parallel(self, minsky):
        perf = PerformanceModel(minsky)
        order = ["m0/gpu0", "m0/gpu1", "m0/gpu2", "m0/gpu3"]
        dp = Job("dp", ModelType.ALEXNET, 1, 4)
        mp = Job(
            "mp", ModelType.ALEXNET, 1, 4,
            comm_pattern=CommPattern.MODEL_PARALLEL_RING,
        )
        assert perf.iteration_time(mp, order) > perf.iteration_time(dp, order)

    def test_manifest_round_trips_pattern(self, tmp_path):
        from repro.workload.manifest import dumps_manifest, loads_manifest

        job = Job(
            "mp", ModelType.GOOGLENET, 4, 4,
            comm_pattern=CommPattern.MODEL_PARALLEL_CHAIN,
        )
        (loaded,) = loads_manifest(dumps_manifest([job]))
        assert loaded.comm_pattern is CommPattern.MODEL_PARALLEL_CHAIN

    def test_engine_uses_declared_pattern(self, minsky):
        from repro.core.placement import PlacementEngine
        from repro.topology.allocation import AllocationState

        engine = PlacementEngine(minsky, AllocationState(minsky))
        job = Job(
            "mp", ModelType.ALEXNET, 1, 2,
            comm_pattern=CommPattern.MODEL_PARALLEL_CHAIN,
        )
        graph = engine.job_graph(job)
        assert graph.n_edges() == 1  # a chain, not a clique
