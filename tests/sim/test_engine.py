"""Tests for the discrete-event simulation engine."""

import pytest

from repro.analysis.scenarios import scenario1_jobs
from repro.schedulers import make_scheduler
from repro.sim.engine import Simulator, run_comparison
from repro.topology.builders import cluster, power8_minsky

from tests.conftest import make_job


def simulate(jobs, scheduler="TOPO-AWARE", topo=None):
    topo = topo or power8_minsky()
    return Simulator(topo, make_scheduler(scheduler), jobs).run()


class TestBasicRuns:
    def test_single_job_lifecycle(self):
        job = make_job("solo", num_gpus=2, iterations=100, arrival_time=5.0)
        result = simulate([job])
        (rec,) = result.records
        assert rec.placed_at == pytest.approx(5.0)
        assert rec.finished_at == pytest.approx(5.0 + rec.solo_exec_time)
        assert rec.waiting_time == pytest.approx(0.0)
        assert result.makespan == rec.finished_at

    def test_records_in_arrival_order(self):
        jobs = [
            make_job("b", num_gpus=1, arrival_time=2.0, iterations=50),
            make_job("a", num_gpus=1, arrival_time=1.0, iterations=50),
        ]
        result = simulate(jobs)
        assert [r.job.job_id for r in result.records] == ["a", "b"]

    def test_duplicate_ids_rejected(self):
        jobs = [make_job("a"), make_job("a")]
        with pytest.raises(ValueError, match="duplicate"):
            simulate(jobs)

    def test_ideal_time_uses_pack(self):
        job = make_job("j", num_gpus=2, batch_size=1, iterations=100)
        result = simulate([job])
        (rec,) = result.records
        # solo placement on an empty machine IS ideal
        assert rec.solo_exec_time == pytest.approx(rec.ideal_exec_time)


class TestQueueing:
    def test_job_waits_for_capacity(self):
        jobs = [
            make_job("first", num_gpus=4, arrival_time=0.0, iterations=100),
            make_job("second", num_gpus=4, arrival_time=1.0, iterations=100),
        ]
        result = simulate(jobs)
        first, second = result.records
        assert second.placed_at == pytest.approx(first.finished_at)
        assert second.waiting_time > 0

    def test_unplaceable_job_marked(self):
        jobs = [make_job("whale", num_gpus=16, iterations=10)]
        result = simulate(jobs)
        (rec,) = result.records
        assert rec.unplaceable and rec.finished_at is None

    def test_fcfs_blocked_queue_starves(self):
        jobs = [
            make_job("whale", num_gpus=16, arrival_time=0.0, iterations=10),
            make_job("minnow", num_gpus=1, arrival_time=1.0, iterations=10),
        ]
        result = simulate(jobs, scheduler="FCFS")
        assert result.record_of("minnow").unplaceable

    def test_topo_p_does_not_starve(self):
        jobs = [
            make_job("whale", num_gpus=16, arrival_time=0.0, iterations=10),
            make_job("minnow", num_gpus=1, arrival_time=1.0, iterations=10),
        ]
        result = simulate(jobs, scheduler="TOPO-AWARE-P")
        assert result.record_of("minnow").finished_at is not None


class TestInterferenceDynamics:
    def test_collocated_jobs_run_longer_than_solo(self):
        tiny = dict(batch_size=1, num_gpus=2, iterations=200)
        solo = simulate([make_job("a", **tiny)])
        pair = simulate(
            [
                make_job("a", **tiny),
                make_job("b", **tiny, arrival_time=0.1),
            ]
        )
        solo_exec = solo.record_of("a").exec_time
        pair_exec_a = pair.record_of("a").exec_time
        # sharing the machine cannot make it faster
        assert pair_exec_a >= solo_exec - 1e-6

    def test_interference_released_on_finish(self):
        """A job that outlives its noisy neighbour speeds back up: its
        total runtime must be less than running at the collocated rate
        for its whole life."""
        long_job = make_job("long", batch_size=1, num_gpus=2, iterations=400)
        short_job = make_job(
            "short", batch_size=1, num_gpus=2, iterations=50, arrival_time=0.0
        )
        result = simulate([long_job, short_job])
        rec = result.record_of("long")
        solo = rec.solo_exec_time
        # had the interference lasted forever, exec would be solo*factor;
        # it must end strictly below that bound
        from repro.perf.interference import pairwise_slowdown

        worst = solo * (1 + pairwise_slowdown(long_job, short_job, 1.0))
        assert solo <= rec.exec_time < worst

    def test_disjoint_machines_no_interference(self):
        topo = cluster(2)
        jobs = [
            make_job("a", batch_size=1, num_gpus=4, iterations=100),
            make_job("b", batch_size=1, num_gpus=4, iterations=100,
                     arrival_time=0.1),
        ]
        result = simulate(jobs, topo=topo)
        for rec in result.records:
            assert rec.exec_time == pytest.approx(rec.solo_exec_time)


class TestComparisonRunner:
    def test_runs_all_policies_on_fresh_state(self):
        jobs = [make_job("a", num_gpus=2, iterations=50)]
        results = run_comparison(power8_minsky, jobs)
        assert set(results) == {"BF", "FCFS", "TOPO-AWARE", "TOPO-AWARE-P"}
        for r in results.values():
            assert r.record_of("a").finished_at is not None

    def test_decision_accounting(self):
        jobs = [make_job("a", num_gpus=2, iterations=50)]
        result = simulate(jobs)
        assert result.decision_rounds >= 1
        assert result.decision_time_s >= 0.0
        assert result.mean_decision_time_s >= 0.0

    def test_decision_accounting_with_injected_clock_is_exact(self):
        # every clock() reading advances 0.5 s; the engine reads twice
        # per decision round, so each round accounts exactly 0.5 s
        ticks = iter(x * 0.5 for x in range(10_000))
        sim = Simulator(
            power8_minsky(),
            make_scheduler("TOPO-AWARE"),
            [make_job("a", num_gpus=2, iterations=50)],
            decision_clock=lambda: next(ticks),
        )
        result = sim.run()
        assert result.decision_time_s == pytest.approx(
            0.5 * result.decision_rounds
        )
        assert result.mean_decision_time_s == pytest.approx(0.5)


class TestPostponementMap:
    """``Scheduler.postponements`` holds live jobs only; the records
    keep every job's count."""

    def test_finished_jobs_leave_the_map(self):
        sched = make_scheduler("TOPO-AWARE-P")
        result = Simulator(cluster(3), sched, scenario1_jobs(80, seed=42)).run()
        assert all(r.finished_at is not None for r in result.records)
        assert sum(r.postponements for r in result.records) > 0
        assert sched.postponements == {}

    def test_cancelled_running_job_leaves_the_map(self):
        sched = make_scheduler("TOPO-AWARE-P")
        sim = Simulator(cluster(3), sched, scenario1_jobs(80, seed=42)).start()
        postponed: list[str] = []
        while not postponed:
            assert sim.step(), "no postponed job ever ran"
            postponed = [j for j in sim.cluster.running if j in sched.postponements]
        count = sched.postponements[postponed[0]]
        sim.cancel_job(postponed[0])
        assert postponed[0] not in sched.postponements
        assert sim.record_of(postponed[0]).postponements == count
