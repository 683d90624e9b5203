"""Tests for the predictive profile database."""

import pytest

from repro.perf.prediction import PredictiveProfileDatabase
from repro.schedulers import make_scheduler
from repro.sim.engine import Simulator
from repro.topology.builders import power8_minsky
from repro.workload.job import BatchClass, ModelType

from tests.conftest import make_job


@pytest.fixture(scope="module")
def db():
    return PredictiveProfileDatabase()


class TestPredictiveDatabase:
    def test_representative_batches_use_exact_profiles(self, db, profiles):
        job = make_job(batch_size=4)
        assert db.for_job(job) is profiles.get(ModelType.ALEXNET, BatchClass.SMALL)

    def test_in_between_batches_get_predictions(self, db, profiles):
        job = make_job(batch_size=12)
        predicted = db.for_job(job)
        class_profile = profiles.get(ModelType.ALEXNET, BatchClass.MEDIUM)
        assert predicted is not class_profile
        # batch 12 communicates more often than the class representative
        # (32), so its predicted demand must be at least as high
        assert predicted.avg_demand_gbs >= class_profile.avg_demand_gbs - 1e-9

    def test_predictions_cached(self, db):
        a = db.for_job(make_job(batch_size=12))
        b = db.for_job(make_job(batch_size=12))
        assert a is b

    def test_still_a_profile_database(self, db):
        assert len(db) == 12
        assert db.get(ModelType.GOOGLENET, BatchClass.BIG) is not None

    def test_simulator_accepts_predictive_profiles(self, db):
        jobs = [
            make_job("a", batch_size=12, num_gpus=2, iterations=50),
            make_job("b", batch_size=6, num_gpus=1, iterations=50,
                     arrival_time=1.0),
        ]
        sim = Simulator(
            power8_minsky(), make_scheduler("TOPO-AWARE-P"), jobs, profiles=db
        )
        result = sim.run()
        assert all(r.finished_at is not None for r in result.records)
