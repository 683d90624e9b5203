"""Tests for the NVLink/DRAM bandwidth series (Figure 5 behaviour)."""

import numpy as np
import pytest

from repro.perf.bandwidth import (
    average_demand_gbs,
    dram_bandwidth_series,
    nvlink_bandwidth_series,
    peak_demand_gbs,
)
from repro.perf.model import PerformanceModel, Placement

from tests.conftest import make_job


@pytest.fixture
def perf(minsky):
    return PerformanceModel(minsky)


def pack(perf, job):
    return perf.placement_gpus(job, Placement.PACK)


class TestDemand:
    def test_fig5_tiny_batch_near_link_speed(self, perf):
        job = make_job(batch_size=1)
        demand = average_demand_gbs(job, perf, pack(perf, job))
        assert demand > 20.0  # Fig 5: ~40 GB/s bursts, high average

    def test_fig5_big_batch_low_demand(self, perf):
        job = make_job(batch_size=128)
        demand = average_demand_gbs(job, perf, pack(perf, job))
        assert demand < 6.0  # Fig 5: "barely reaches ~6 GB/s"

    def test_demand_monotone_decreasing_in_batch(self, perf):
        demands = [
            average_demand_gbs(
                make_job(batch_size=b), perf, pack(perf, make_job(batch_size=b))
            )
            for b in (1, 4, 64, 128)
        ]
        assert demands == sorted(demands, reverse=True)

    def test_single_gpu_no_demand(self, perf):
        job = make_job(num_gpus=1)
        assert average_demand_gbs(job, perf, ["m0/gpu0"]) == 0.0
        assert peak_demand_gbs(job, perf, ["m0/gpu0"]) == 0.0

    def test_peak_is_link_limited(self, perf):
        job = make_job(batch_size=1)
        assert peak_demand_gbs(job, perf, pack(perf, job)) == pytest.approx(40.0)


class TestSeries:
    def test_series_shape_and_ordering(self, perf):
        job = make_job(batch_size=1, iterations=4000)
        times, gbs = nvlink_bandwidth_series(job, perf, pack(perf, job))
        assert len(times) == len(gbs)
        assert np.all(gbs >= 0)
        assert np.all(np.diff(times) > 0)

    def test_series_zero_after_job_ends(self, perf):
        job = make_job(batch_size=1, iterations=10)
        times, gbs = nvlink_bandwidth_series(job, perf, pack(perf, job), duration_s=50)
        end = job.iterations * perf.iteration_time(job, pack(perf, job))
        assert np.all(gbs[times > end + 1] == 0)

    def test_tiny_series_dominates_big(self, perf):
        tiny = make_job(batch_size=1, iterations=4000)
        big = make_job(batch_size=128, iterations=4000)
        _, g_tiny = nvlink_bandwidth_series(tiny, perf, pack(perf, tiny))
        _, g_big = nvlink_bandwidth_series(big, perf, pack(perf, big))
        assert g_tiny.mean() > 4 * g_big.mean()

    def test_invalid_params_rejected(self, perf):
        job = make_job()
        with pytest.raises(ValueError):
            nvlink_bandwidth_series(job, perf, pack(perf, job), duration_s=0)


class TestDRAMSeries:
    def test_spread_placement_stages_through_dram(self, perf, minsky):
        job = make_job(batch_size=1, iterations=4000)
        packed = perf.placement_gpus(job, Placement.PACK)
        spread = perf.placement_gpus(job, Placement.SPREAD)
        _, dram_pack = dram_bandwidth_series(job, perf, packed)
        _, dram_spread = dram_bandwidth_series(job, perf, spread)
        # no-P2P staging multiplies host traffic
        assert dram_spread[:100].mean() > dram_pack[:100].mean()

    def test_dram_includes_input_pipeline(self, perf):
        job = make_job(batch_size=1, iterations=4000)
        _, dram = dram_bandwidth_series(job, perf, pack(perf, job))
        assert dram[0] > 0
