"""Tests for duration-targeted workload generation."""

import numpy as np
import pytest

from repro.perf.model import PerformanceModel, Placement
from repro.topology.builders import power8_minsky
from repro.workload.generator import GeneratorConfig, WorkloadGenerator
from repro.workload.job import ModelType


class TestDurationTargeting:
    def test_default_durations_land_in_range(self):
        """Duration-targeted jobs run 60-300 s (packed, solo) regardless
        of how expensive the drawn model/batch combination is."""
        jobs = WorkloadGenerator(seed=9).generate(200)
        topo = power8_minsky()
        perf = PerformanceModel(topo)
        durations = []
        for job in jobs:
            gpus = perf.placement_gpus(job, Placement.PACK)
            durations.append(perf.solo_exec_time(job, gpus))
        durations = np.array(durations)
        # tolerance: iterations are integer-rounded and the profile's
        # 2-GPU pack time approximates 1/4-GPU variants
        assert np.percentile(durations, 5) > 30.0
        assert np.percentile(durations, 95) < 450.0

    def test_expensive_models_get_fewer_iterations(self):
        jobs = WorkloadGenerator(seed=9).generate(400)
        by_key: dict = {}
        for j in jobs:
            by_key.setdefault((j.model, j.batch_class), []).append(j.iterations)
        # a big-batch GoogLeNet iteration costs ~100x an AlexNet-tiny one
        from repro.workload.job import BatchClass

        goog_big = by_key.get((ModelType.GOOGLENET, BatchClass.BIG))
        alex_tiny = by_key.get((ModelType.ALEXNET, BatchClass.TINY))
        if goog_big and alex_tiny:
            assert np.mean(goog_big) < 0.1 * np.mean(alex_tiny)

    def test_fixed_iterations_mode_still_works(self):
        cfg = GeneratorConfig(iterations=123)
        jobs = WorkloadGenerator(cfg, seed=1).generate(10)
        assert all(j.iterations == 123 for j in jobs)

    def test_duration_range_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(duration_range_s=(0.0, 100.0))
        with pytest.raises(ValueError):
            GeneratorConfig(duration_range_s=(100.0, 50.0))
        with pytest.raises(ValueError):
            GeneratorConfig(iterations=0)

    def test_custom_duration_range_respected(self):
        cfg = GeneratorConfig(duration_range_s=(10.0, 20.0))
        jobs = WorkloadGenerator(cfg, seed=2).generate(50)
        topo = power8_minsky()
        perf = PerformanceModel(topo)
        for job in jobs:
            gpus = perf.placement_gpus(job, Placement.PACK)
            assert perf.solo_exec_time(job, gpus) < 60.0


class TestBurstyArrivals:
    def test_mean_rate_preserved(self):
        plain = GeneratorConfig(arrival_rate_per_min=10.0)
        bursty = GeneratorConfig(arrival_rate_per_min=10.0, burstiness=3.0)
        t_plain = WorkloadGenerator(plain, seed=4).generate(3000)[-1].arrival_time
        t_bursty = WorkloadGenerator(bursty, seed=4).generate(3000)[-1].arrival_time
        assert t_bursty == pytest.approx(t_plain, rel=0.15)

    def test_bursty_gaps_have_higher_variance(self):
        plain = GeneratorConfig(arrival_rate_per_min=10.0)
        bursty = GeneratorConfig(arrival_rate_per_min=10.0, burstiness=3.0)

        def gap_cv(cfg):
            jobs = WorkloadGenerator(cfg, seed=4).generate(3000)
            gaps = np.diff([0.0] + [j.arrival_time for j in jobs])
            return gaps.std() / gaps.mean()

        # a Poisson process has CV 1; MMPP is over-dispersed
        assert gap_cv(bursty) > 1.15 > gap_cv(plain) * 1.1

    def test_deterministic(self):
        cfg = GeneratorConfig(burstiness=2.0)
        a = WorkloadGenerator(cfg, seed=1).generate(50)
        b = WorkloadGenerator(cfg, seed=1).generate(50)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(burstiness=0.5)
        with pytest.raises(ValueError):
            GeneratorConfig(burst_fraction=0.0)
