"""Tests for the calibration constants and their paper anchors."""

import pytest

from repro.perf.calibration import (
    DEFAULT_CALIBRATION,
    MachineKind,
)
from repro.workload.job import BatchClass, ModelType


class TestModelCalibration:
    def test_compute_time_linear_in_batch(self):
        mc = DEFAULT_CALIBRATION.model(ModelType.ALEXNET)
        t1, t2 = mc.compute_time(1), mc.compute_time(2)
        t128 = mc.compute_time(128)
        assert t2 - t1 == pytest.approx(mc.compute_per_sample_s)
        assert t128 > 50 * t1

    def test_invalid_batch_rejected(self):
        with pytest.raises(ValueError):
            DEFAULT_CALIBRATION.model(ModelType.ALEXNET).compute_time(0)

    def test_k80_slower(self):
        cal = DEFAULT_CALIBRATION
        p100 = cal.compute_time(ModelType.ALEXNET, 8, MachineKind.NVLINK_P100)
        k80 = cal.compute_time(ModelType.ALEXNET, 8, MachineKind.PCIE_K80)
        assert k80 == pytest.approx(p100 * cal.k80_compute_factor)


class TestPaperAnchors:
    """Figure 3's absolute AlexNet anchors, 40-iteration scale."""

    def test_alexnet_tiny_compute_about_1s(self):
        t = 40 * DEFAULT_CALIBRATION.model(ModelType.ALEXNET).compute_time(1)
        assert 0.5 < t < 2.0

    def test_alexnet_big_compute_about_66s(self):
        t = 40 * DEFAULT_CALIBRATION.model(ModelType.ALEXNET).compute_time(128)
        assert 55.0 < t < 80.0

    def test_alexnet_comm_about_2s_at_nvlink_speed(self):
        # comm volume over the 40 GB/s dual-NVLink pack path
        v = DEFAULT_CALIBRATION.model(ModelType.ALEXNET).comm_volume_gb
        assert 40 * v / 40.0 == pytest.approx(2.0, rel=0.2)

    def test_googlenet_communicates_least(self):
        vols = {
            m: DEFAULT_CALIBRATION.model(m).comm_volume_gb for m in ModelType
        }
        assert vols[ModelType.GOOGLENET] < 0.3 * vols[ModelType.ALEXNET]
        assert vols[ModelType.GOOGLENET] < 0.3 * vols[ModelType.CAFFEREF]

    def test_sensitivity_and_pressure_cover_all_classes(self):
        assert set(DEFAULT_CALIBRATION.sensitivity) == set(BatchClass)
        assert set(DEFAULT_CALIBRATION.pressure) == set(BatchClass)

    def test_sensitivity_falls_faster_than_pressure(self):
        # Fig 6: victims stop suffering with big batches, but aggressors
        # keep perturbing ("it still consumes bandwidth")
        s = DEFAULT_CALIBRATION.sensitivity
        p = DEFAULT_CALIBRATION.pressure
        s_drop = s[BatchClass.TINY] / s[BatchClass.BIG]
        p_drop = p[BatchClass.TINY] / p[BatchClass.BIG]
        assert s_drop > 5.0
        assert p_drop < 1.5
