"""Tests for the solo performance model (Figures 3/4 behaviour)."""

import pytest

from repro.perf.calibration import MachineKind
from repro.perf.model import (
    PerformanceModel,
    Placement,
    allreduce_scale,
    pack_gpus,
    spread_gpus,
)
from repro.topology.builders import cluster

from tests.conftest import make_job


class TestAllreduceScale:
    def test_values(self):
        assert allreduce_scale(1) == 0.0
        assert allreduce_scale(2) == 1.0
        assert allreduce_scale(4) == 1.5
        assert allreduce_scale(8) == 1.75

    def test_monotone(self):
        scales = [allreduce_scale(n) for n in range(1, 16)]
        assert scales == sorted(scales)

    def test_invalid(self):
        with pytest.raises(ValueError):
            allreduce_scale(0)


class TestCanonicalPlacements:
    def test_pack_prefers_single_socket(self, minsky):
        gpus = pack_gpus(minsky, 2)
        assert minsky.socket_of(gpus[0]) == minsky.socket_of(gpus[1])

    def test_spread_crosses_sockets(self, minsky):
        gpus = spread_gpus(minsky, 2)
        assert minsky.socket_of(gpus[0]) != minsky.socket_of(gpus[1])

    def test_pack_respects_free_list(self, minsky):
        gpus = pack_gpus(minsky, 2, free=["m0/gpu1", "m0/gpu2", "m0/gpu3"])
        assert set(gpus) == {"m0/gpu2", "m0/gpu3"}  # the intact socket

    def test_pack_prefers_machine_that_fits(self):
        topo = cluster(2)
        free = topo.gpus(machine="m0")[:1] + topo.gpus(machine="m1")
        gpus = pack_gpus(topo, 2, free=free)
        assert {topo.machine_of(g) for g in gpus} == {"m1"}

    def test_spread_round_robin(self, minsky):
        gpus = spread_gpus(minsky, 4)
        assert len(gpus) == 4

    def test_insufficient_gpus_rejected(self, minsky):
        with pytest.raises(ValueError, match="available"):
            pack_gpus(minsky, 5)
        with pytest.raises(ValueError, match="available"):
            spread_gpus(minsky, 5)


class TestMachineKind:
    def test_minsky_is_nvlink(self, minsky):
        assert PerformanceModel(minsky).machine_kind("m0") is MachineKind.NVLINK_P100

    def test_k80_machine_is_pcie(self, pcie_machine):
        assert (
            PerformanceModel(pcie_machine).machine_kind("m0")
            is MachineKind.PCIE_K80
        )

    def test_override(self, minsky):
        perf = PerformanceModel(minsky, machine_kind=MachineKind.PCIE_K80)
        assert perf.machine_kind("m0") is MachineKind.PCIE_K80


class TestIterationModel:
    def test_single_gpu_has_no_comm(self, minsky):
        perf = PerformanceModel(minsky)
        bd = perf.iteration_breakdown(make_job(num_gpus=1), ["m0/gpu0"])
        assert bd.comm_s == 0.0 and bd.p2p

    def test_wrong_gpu_count_rejected(self, minsky):
        perf = PerformanceModel(minsky)
        with pytest.raises(ValueError, match="allocation"):
            perf.iteration_breakdown(make_job(num_gpus=2), ["m0/gpu0"])

    def test_pack_faster_than_spread(self, minsky):
        perf = PerformanceModel(minsky)
        job = make_job(batch_size=1)
        pack = perf.iteration_time(job, perf.placement_gpus(job, Placement.PACK))
        spread = perf.iteration_time(job, perf.placement_gpus(job, Placement.SPREAD))
        assert pack < spread

    def test_spread_loses_p2p(self, minsky):
        perf = PerformanceModel(minsky)
        job = make_job(batch_size=1)
        bd = perf.iteration_breakdown(job, perf.placement_gpus(job, Placement.SPREAD))
        assert not bd.p2p

    def test_fig4_anchor_tiny_speedup(self, minsky):
        """Pack/spread speedup ~1.3x for AlexNet batch 1 (Figure 4)."""
        perf = PerformanceModel(minsky)
        job = make_job(batch_size=1)
        pack = perf.iteration_time(job, perf.placement_gpus(job, Placement.PACK))
        spread = perf.iteration_time(job, perf.placement_gpus(job, Placement.SPREAD))
        assert 1.2 <= spread / pack <= 1.4

    def test_fig4_anchor_parity_at_big_batches(self, minsky):
        perf = PerformanceModel(minsky)
        job = make_job(batch_size=128)
        pack = perf.iteration_time(job, perf.placement_gpus(job, Placement.PACK))
        spread = perf.iteration_time(job, perf.placement_gpus(job, Placement.SPREAD))
        assert spread / pack < 1.05

    def test_speedup_monotone_in_batch(self, minsky):
        perf = PerformanceModel(minsky)
        speedups = []
        for b in (1, 4, 16, 64):
            job = make_job(batch_size=b)
            pack = perf.iteration_time(job, perf.placement_gpus(job, Placement.PACK))
            spread = perf.iteration_time(
                job, perf.placement_gpus(job, Placement.SPREAD)
            )
            speedups.append(spread / pack)
        assert speedups == sorted(speedups, reverse=True)

    def test_more_gpus_more_comm(self, minsky):
        perf = PerformanceModel(minsky)
        two = perf.iteration_breakdown(make_job(num_gpus=2), ["m0/gpu0", "m0/gpu1"])
        four = perf.iteration_breakdown(make_job(num_gpus=4), minsky.gpus())
        assert four.comm_s > two.comm_s

    def test_comm_fraction_bounds(self, minsky):
        perf = PerformanceModel(minsky)
        bd = perf.iteration_breakdown(make_job(batch_size=1), ["m0/gpu0", "m0/gpu1"])
        assert 0.0 < bd.comm_fraction < 1.0


class TestExecutionTimes:
    def test_solo_time_scales_with_iterations(self, minsky):
        perf = PerformanceModel(minsky)
        j100 = make_job(iterations=100)
        j200 = make_job(iterations=200)
        gpus = ["m0/gpu0", "m0/gpu1"]
        assert perf.solo_exec_time(j200, gpus) == pytest.approx(
            2 * perf.solo_exec_time(j100, gpus)
        )

    def test_ideal_is_lower_bound_over_placements(self, minsky):
        import itertools

        perf = PerformanceModel(minsky)
        job = make_job(batch_size=1)
        ideal = perf.ideal_exec_time(job)
        for pair in itertools.combinations(minsky.gpus(), 2):
            assert perf.solo_exec_time(job, list(pair)) >= ideal - 1e-9
