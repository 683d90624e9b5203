"""Tests for the Section 5.3 synthetic workload generator."""

import numpy as np
import pytest

from repro.workload.generator import GeneratorConfig, WorkloadGenerator
from repro.workload.job import BatchClass, ModelType


class TestConfigValidation:
    def test_defaults_valid(self):
        GeneratorConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(arrival_rate_per_min=0),
            dict(batch_binomial_p=1.5),
            dict(model_binomial_p=-0.1),
            dict(gpu_counts=(1, 2), gpu_count_probs=(1.0,)),
            dict(gpu_count_probs=(0.5, 0.4, 0.2)),
            dict(gpu_counts=(0, 2, 4)),
            # a NaN rate passes a ``<= 0`` check and never ends the
            # arrival loop
            dict(arrival_rate_per_min=float("nan")),
            dict(arrival_rate_per_min=float("inf")),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GeneratorConfig(**kwargs)


class TestGeneration:
    def test_deterministic_for_seed(self):
        a = WorkloadGenerator(seed=5).generate(20)
        b = WorkloadGenerator(seed=5).generate(20)
        assert a == b

    def test_different_seeds_differ(self):
        a = WorkloadGenerator(seed=1).generate(20)
        b = WorkloadGenerator(seed=2).generate(20)
        assert a != b

    def test_arrivals_sorted_and_positive(self):
        jobs = WorkloadGenerator(seed=0).generate(50)
        arrivals = [j.arrival_time for j in jobs]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] > 0

    def test_mean_interarrival_matches_rate(self):
        cfg = GeneratorConfig(arrival_rate_per_min=10.0)
        jobs = WorkloadGenerator(cfg, seed=3).generate(3000)
        gaps = np.diff([0.0] + [j.arrival_time for j in jobs])
        assert np.mean(gaps) == pytest.approx(6.0, rel=0.1)

    def test_batch_classes_follow_binomial_range(self):
        jobs = WorkloadGenerator(seed=0).generate(500)
        classes = {j.batch_class for j in jobs}
        assert classes == set(BatchClass)  # all four drawn with p=0.5
        # Binomial(3, 0.5): tiny/big ~12.5%, small/medium ~37.5%
        small = sum(1 for j in jobs if j.batch_class is BatchClass.SMALL)
        tiny = sum(1 for j in jobs if j.batch_class is BatchClass.TINY)
        assert small > tiny

    def test_models_follow_binomial(self):
        jobs = WorkloadGenerator(seed=0).generate(500)
        counts = {m: 0 for m in ModelType}
        for j in jobs:
            counts[j.model] += 1
        # Binomial(2, 0.5): CaffeRef (index 1) is the mode
        assert counts[ModelType.CAFFEREF] > counts[ModelType.ALEXNET]
        assert counts[ModelType.CAFFEREF] > counts[ModelType.GOOGLENET]

    def test_gpu_counts_from_configured_support(self):
        cfg = GeneratorConfig(gpu_counts=(2,), gpu_count_probs=(1.0,))
        jobs = WorkloadGenerator(cfg, seed=0).generate(10)
        assert all(j.num_gpus == 2 for j in jobs)

    def test_min_utility_convention(self):
        jobs = WorkloadGenerator(seed=0).generate(200)
        for j in jobs:
            expected = 0.3 if j.num_gpus == 1 else 0.5
            assert j.min_utility == expected

    def test_ids_unique_with_prefix(self):
        jobs = WorkloadGenerator(seed=0).generate(30, id_prefix="x")
        ids = [j.job_id for j in jobs]
        assert len(set(ids)) == 30 and ids[0] == "x0"

    def test_zero_jobs_rejected(self):
        with pytest.raises(ValueError):
            WorkloadGenerator(seed=0).generate(0)
