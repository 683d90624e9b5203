"""Golden batch-equivalence: daemon replay == one-shot simulate.

The service's core correctness guarantee (ISSUE acceptance criterion):
a trace pushed through the real HTTP API in paused mode, then resumed
and drained, produces **byte-identical** job records to a one-shot
``repro simulate`` of the same manifest.  Compared field-by-field with
``==`` over every measured record field — floats included, no
tolerance.
"""

import pytest

from repro.analysis.bench import first_record_difference
from repro.analysis.scenarios import scenario1_jobs
from repro.schedulers import make_scheduler
from repro.service import SchedulerService, ServiceServer, replay_trace
from repro.sim.engine import Simulator
from repro.topology.builders import cluster
from repro.workload.job import Job, ModelType


@pytest.mark.parametrize("scheduler_name", ["TOPO-AWARE", "FCFS"])
def test_daemon_replay_matches_one_shot_bit_identically(scheduler_name):
    jobs = scenario1_jobs(100, seed=42)

    one_shot = Simulator(
        cluster(5), make_scheduler(scheduler_name), list(jobs)
    ).run()

    service = SchedulerService(cluster(5), scheduler_name)
    with service, ServiceServer(service) as server:
        report = replay_trace(jobs, server.url, pause=True, wait=True)
        assert report.submitted == len(jobs)
        assert report.rejected == {}
        assert report.completed
        assert service.drain()
        daemon = service.result()

    assert len(daemon.records) == len(one_shot.records)
    assert first_record_difference(daemon, one_shot) is None


def test_an_unplaceable_job_keeps_the_one_shot_record():
    """A job no machine can hold ends unplaceable in both runs: the
    daemon withdraws it as the one-shot loop does, without cancelling
    it."""
    jobs = scenario1_jobs(20, seed=42)
    jobs.insert(3, Job(
        "wide", ModelType.ALEXNET, 4, 8, single_node=True,
        arrival_time=(jobs[2].arrival_time + jobs[3].arrival_time) / 2,
    ))
    one_shot = Simulator(cluster(2), make_scheduler("TOPO-AWARE"), list(jobs)).run()
    assert [r.job.job_id for r in one_shot.records if r.unplaceable] == ["wide"]

    service = SchedulerService(cluster(2), "TOPO-AWARE")
    with service, ServiceServer(service) as server:
        report = replay_trace(jobs, server.url, pause=True, wait=True)
        assert report.submitted == len(jobs)
        assert service.drain()
        daemon = service.result()

    assert first_record_difference(daemon, one_shot) is None


def test_live_mode_completes_the_whole_trace():
    """Unpaused submissions race the engine: no bit-identical claim,
    but every job must still terminate (arrival clamping at work)."""
    jobs = scenario1_jobs(40, seed=7)
    service = SchedulerService(cluster(5), "TOPO-AWARE")
    with service, ServiceServer(service) as server:
        report = replay_trace(jobs, server.url, pause=False, wait=True)
        assert report.submitted == len(jobs)
        assert report.completed
        assert set(report.final_states.values()) <= {
            "FINISHED",
            "CANCELLED",
            "FAILED",
        }

