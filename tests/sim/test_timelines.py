"""Tests for utilization and bandwidth timelines (Figure 8 strips)."""

import numpy as np
import pytest

from repro.analysis.figures import fig8_prototype
from repro.sim.metrics import (
    average_utilization,
    bandwidth_timeline,
    utilization_timeline,
)
from repro.workload.profiles import default_database

from tests.sim.test_metrics import record


@pytest.fixture(scope="module")
def fig8_results():
    return fig8_prototype()


class TestUtilizationTimeline:
    def test_single_job_utilization(self):
        rec = record()  # 2 GPUs, 10..110s
        times, util = utilization_timeline([rec], total_gpus=4, n_samples=111)
        assert util.max() == pytest.approx(0.5)
        assert util[0] == 0.0  # nothing running at t=0

    def test_bounded_by_one(self, fig8_results):
        for result in fig8_results.values():
            _, util = utilization_timeline(result.records, total_gpus=4)
            assert np.all(util <= 1.0 + 1e-9)
            assert np.all(util >= 0.0)

    def test_average_utilization_positive(self, fig8_results):
        result = fig8_results["TOPO-AWARE-P"]
        avg = average_utilization(result.records, total_gpus=4)
        assert 0.3 < avg < 1.0

    def test_topo_p_utilizes_at_least_as_well(self, fig8_results):
        """The paper: the topology-aware strategy 'provides higher
        resource utilization' -- with the same work done in less
        wall-clock, busy fraction is at least the greedy one's."""
        topo_avg = average_utilization(
            fig8_results["TOPO-AWARE-P"].records, total_gpus=4
        )
        bf_avg = average_utilization(fig8_results["BF"].records, total_gpus=4)
        # same GPU-seconds over a shorter makespan -> higher or equal
        assert topo_avg >= bf_avg - 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            utilization_timeline([], total_gpus=0)
        with pytest.raises(ValueError):
            utilization_timeline([], total_gpus=4, n_samples=1)

    def test_empty_records(self):
        times, util = utilization_timeline([], total_gpus=4)
        assert util.tolist() == [0.0]


class TestBandwidthTimeline:
    def test_fig8_strips_distinguish_policies(self, fig8_results):
        """BF routes the multi-GPU jobs through the CPUs; TOPO-AWARE-P
        moves the same traffic over P2P -- exactly Figure 8's story."""
        profiles = default_database()
        _, p2p_bf, routed_bf = bandwidth_timeline(
            fig8_results["BF"].records, profiles
        )
        _, p2p_tp, routed_tp = bandwidth_timeline(
            fig8_results["TOPO-AWARE-P"].records, profiles
        )
        assert routed_bf.max() > 0.0  # BF has host-routed traffic
        assert p2p_tp.max() > 0.0  # TOPO-AWARE-P uses P2P
        assert routed_tp.max() == 0.0  # ... exclusively
        assert p2p_tp.sum() > p2p_bf.sum()

    def test_single_gpu_jobs_contribute_nothing(self):
        profiles = default_database()
        rec = record(num_gpus=1)
        rec.gpus = ("m0/gpu0",)
        rec.p2p = True
        _, p2p, routed = bandwidth_timeline([rec], profiles)
        assert p2p.max() == routed.max() == 0.0

    def test_empty(self):
        times, p2p, routed = bandwidth_timeline([], default_database())
        assert p2p.tolist() == [0.0]
