"""Tests for Eqs. 1-5: cost, interference, fragmentation, utility."""

import pytest

from repro.core.utility import (
    SolutionMetrics,
    UtilityParams,
    comm_cost_bounds,
    communication_cost,
    evaluate_solution,
    fragmentation_after,
    normalize_interference,
    normalized_comm_cost,
    normalized_utility,
    raw_utility,
)
from repro.topology.builders import cluster, power8_minsky
from repro.topology.graph import NodeKind
from repro.topology.links import LinkSpec

from tests.conftest import make_job


class TestParams:
    def test_default_weights_sum_to_one(self):
        UtilityParams()

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            UtilityParams(alpha_cc=0.5, alpha_b=0.5, alpha_d=0.5)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            UtilityParams(alpha_cc=-0.2, alpha_b=0.6, alpha_d=0.6)

    def test_interference_max_must_exceed_one(self):
        with pytest.raises(ValueError):
            UtilityParams(interference_max=1.0)


class TestCommCost:
    def test_eq3_pack_vs_spread(self, minsky):
        pack = communication_cost(minsky, ["m0/gpu0", "m0/gpu1"])
        spread = communication_cost(minsky, ["m0/gpu0", "m0/gpu2"])
        assert pack == 1.0 and spread == 42.0

    def test_eq3_four_gpus(self, minsky):
        # 2 intra-socket pairs at 1 + 4 cross pairs at 42
        assert communication_cost(minsky, minsky.gpus()) == 2 * 1 + 4 * 42

    def test_bounds(self, minsky):
        best, worst = comm_cost_bounds(minsky, 2)
        assert best == 1.0 and worst == 42.0
        assert comm_cost_bounds(minsky, 1) == (0.0, 0.0)

    def test_bounds_follow_a_graph_mutation(self):
        topo = power8_minsky()
        assert comm_cost_bounds(topo, 2) == (1.0, 42.0)
        # a second machine behind a network node adds cross-machine pairs
        topo.add_node("net", NodeKind.NETWORK)
        topo.add_edge("m0", "net", 100.0, LinkSpec.network())
        topo.merge(power8_minsky("m1"))
        topo.add_edge("m1", "net", 100.0, LinkSpec.network())
        assert comm_cost_bounds(topo, 2) == (1.0, 242.0)
        assert comm_cost_bounds(topo, 2) == comm_cost_bounds(cluster(2), 2)

    def test_normalized_extremes(self, minsky):
        assert normalized_comm_cost(minsky, ["m0/gpu0", "m0/gpu1"]) == 0.0
        assert normalized_comm_cost(minsky, ["m0/gpu0", "m0/gpu2"]) == 1.0
        assert normalized_comm_cost(minsky, ["m0/gpu0"]) == 0.0

    def test_cluster_bounds_span_network(self, small_cluster):
        best, worst = comm_cost_bounds(small_cluster, 2)
        assert worst > 100  # cross-machine pairs dominate


class TestFragmentation:
    def test_filling_a_socket_leaves_zero(self, minsky, alloc):
        assert fragmentation_after(minsky, alloc, ["m0/gpu0", "m0/gpu1"]) == 0.0

    def test_half_filling_leaves_half(self, minsky, alloc):
        assert fragmentation_after(minsky, alloc, ["m0/gpu0"]) == 0.5

    def test_spread_leaves_more_fragments(self, minsky, alloc):
        packed = fragmentation_after(minsky, alloc, ["m0/gpu0", "m0/gpu1"])
        spread = fragmentation_after(minsky, alloc, ["m0/gpu0", "m0/gpu2"])
        assert spread > packed

    def test_respects_existing_allocations(self, minsky, alloc):
        alloc.allocate("other", ["m0/gpu1"])
        assert fragmentation_after(minsky, alloc, ["m0/gpu0"]) == 0.0


class TestUtilityForms:
    def test_raw_utility_prefers_lower_costs(self):
        good = raw_utility(1.0, 1.0, 0.1)
        bad = raw_utility(42.0, 1.3, 0.9)
        assert good > bad

    def test_raw_utility_epsilon_guard(self):
        assert raw_utility(0.0, 1.0, 0.0) < float("inf")

    def test_normalized_utility_bounds(self):
        assert normalized_utility(0, 0, 0) == pytest.approx(1.0)
        assert normalized_utility(1, 1, 1) == pytest.approx(0.0)

    def test_normalized_utility_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            normalized_utility(1.5, 0, 0)

    def test_weights_shift_emphasis(self):
        comm_heavy = UtilityParams(alpha_cc=0.8, alpha_b=0.1, alpha_d=0.1)
        u_default = normalized_utility(1.0, 0.0, 0.0)
        u_heavy = normalized_utility(1.0, 0.0, 0.0, comm_heavy)
        assert u_heavy < u_default

    def test_normalize_interference_clamps(self):
        params = UtilityParams()
        assert normalize_interference(1.0, params) == 0.0
        assert normalize_interference(99.0, params) == 1.0
        mid = normalize_interference(1.125, params)
        assert 0.0 < mid < 1.0

    def test_objective_is_complement_of_utility(self):
        params = UtilityParams()
        metrics = SolutionMetrics(
            comm_cost=1.0,
            interference=1.1,
            fragmentation=0.3,
            comm_norm=0.2,
            interference_norm=0.4,
            fragmentation_norm=0.3,
            utility=normalized_utility(0.2, 0.4, 0.3, params),
        )
        assert metrics.objective(params) == pytest.approx(1.0 - metrics.utility)


class TestEvaluateSolution:
    def test_perfect_pack_on_empty_machine(self, minsky, alloc):
        metrics = evaluate_solution(
            minsky, alloc, make_job(), ["m0/gpu0", "m0/gpu1"], {}
        )
        assert metrics.utility == pytest.approx(1.0)
        assert metrics.interference == 1.0

    def test_split_placement_penalised(self, minsky, alloc):
        pack = evaluate_solution(
            minsky, alloc, make_job(), ["m0/gpu0", "m0/gpu1"], {}
        )
        split = evaluate_solution(
            minsky, alloc, make_job(), ["m0/gpu0", "m0/gpu2"], {}
        )
        assert split.utility < pack.utility
        assert split.comm_norm == 1.0

    def test_interference_lowers_utility(self, minsky, alloc):
        other = make_job("other", batch_size=1)
        alloc.allocate("other", ["m0/gpu1", "m0/gpu3"])
        co = {"other": (other, frozenset(["m0/gpu1", "m0/gpu3"]))}
        quiet = evaluate_solution(
            minsky, alloc, make_job(), ["m0/gpu0", "m0/gpu2"], {}
        )
        noisy = evaluate_solution(
            minsky, alloc, make_job(), ["m0/gpu0", "m0/gpu2"], co
        )
        assert noisy.utility < quiet.utility
        assert noisy.interference > 1.0

    def test_eq3_is_computed_once_and_normalised_bit_for_bit(
        self, small_cluster, monkeypatch
    ):
        """``evaluate_solution`` normalises the ``t`` it computed: one
        pairwise distance sum per evaluation, and ``comm_norm`` equal
        to :func:`normalized_comm_cost` bit for bit."""
        from repro.topology.allocation import AllocationState
        from repro.topology.graph import TopologyGraph

        alloc = AllocationState(small_cluster)
        calls = []
        direct = TopologyGraph.pairwise_distance_sum

        def counted(self, names):
            calls.append(1)
            return direct(self, names)

        layouts = [
            ["m0/gpu0"],
            ["m0/gpu0", "m0/gpu1"],
            ["m0/gpu0", "m0/gpu2"],
            ["m0/gpu0", "m0/gpu1", "m0/gpu3"],
            small_cluster.gpus(machine="m1"),
            ["m0/gpu1", "m1/gpu2"],
            ["m0/gpu0", "m1/gpu1", "m2/gpu3"],
        ]
        for gpus in layouts:
            expected_t = communication_cost(small_cluster, gpus)
            expected_norm = normalized_comm_cost(small_cluster, gpus)
            monkeypatch.setattr(TopologyGraph, "pairwise_distance_sum", counted)
            calls.clear()
            metrics = evaluate_solution(
                small_cluster, alloc, make_job(num_gpus=len(gpus)), gpus, {}
            )
            monkeypatch.undo()
            assert len(calls) == 1, gpus
            assert metrics.comm_cost == expected_t
            assert metrics.comm_norm == expected_norm
        # not vacuous: the layouts span the whole [0, 1] range
        norms = {
            normalized_comm_cost(small_cluster, gpus) for gpus in layouts
        }
        assert 0.0 in norms and 1.0 in norms and len(norms) > 3
