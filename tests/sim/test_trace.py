"""Tests for trace persistence."""

import pytest

from repro.schedulers import make_scheduler
from repro.sim.engine import Simulator
from repro.analysis.scenarios import fragmentation_jobs
from repro.sim.trace import load_trace, records_to_rows, save_trace
from repro.topology.builders import cluster, power8_minsky

from tests.conftest import make_job


@pytest.fixture
def finished_run():
    jobs = [
        make_job("a", num_gpus=2, iterations=50),
        make_job("b", num_gpus=1, iterations=50, arrival_time=1.0),
    ]
    sim = Simulator(power8_minsky(), make_scheduler("TOPO-AWARE"), jobs)
    return jobs, sim.run()


class TestRoundTrip:
    def test_jobs_survive(self, tmp_path, finished_run):
        jobs, result = finished_run
        path = tmp_path / "trace.json"
        save_trace(path, jobs, result.records, scheduler=result.scheduler_name)
        loaded_jobs, rows, scheduler = load_trace(path)
        assert loaded_jobs == sorted(jobs, key=lambda j: (j.arrival_time, j.job_id))
        assert scheduler == "TOPO-AWARE"
        assert len(rows) == 2

    def test_rows_carry_outcomes(self, finished_run):
        _, result = finished_run
        rows = records_to_rows(result.records)
        by_id = {r["id"]: r for r in rows}
        assert by_id["a"]["finished_at"] > by_id["a"]["placed_at"]
        assert by_id["a"]["gpus"]
        assert by_id["a"]["utility"] is not None

    def test_rows_keep_every_record_field(self, tmp_path):
        jobs = fragmentation_jobs()
        result = Simulator(cluster(2), make_scheduler("TOPO-AWARE-PM"), jobs).run()
        assert sum(r.preemptions for r in result.records) >= 1
        path = tmp_path / "trace.json"
        save_trace(path, jobs, result.records, scheduler=result.scheduler_name)
        _, rows, _ = load_trace(path)
        assert sum(row["preemptions"] for row in rows) >= 1
        by_id = {row.pop("id"): row for row in rows}
        assert by_id == {r.job.job_id: r.to_dict() for r in result.records}

    def test_trace_without_records(self, tmp_path, finished_run):
        jobs, _ = finished_run
        path = tmp_path / "plain.json"
        save_trace(path, jobs)
        loaded_jobs, rows, scheduler = load_trace(path)
        assert rows is None and scheduler is None
        assert len(loaded_jobs) == 2

    def test_not_a_trace_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="not a trace"):
            load_trace(path)
