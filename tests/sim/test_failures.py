"""Failure-injection tests: machines die, jobs restart, the sim survives."""

import pytest

from repro.schedulers import make_scheduler
from repro.sim.cluster import ClusterState, RunningJob
from repro.sim.engine import MachineFailure, Simulator
from repro.topology.allocation import AllocationError, AllocationState
from repro.topology.builders import cluster, power8_minsky

from tests.conftest import make_job


def simulate(jobs, failures, topo=None, scheduler="TOPO-AWARE-P"):
    topo = topo or cluster(2)
    return Simulator(
        topo, make_scheduler(scheduler), jobs, failures=failures
    ).run()


class TestMachineHealthState:
    def test_down_machine_offers_no_capacity(self, minsky):
        state = AllocationState(minsky)
        state.set_machine_down("m0")
        assert state.free_count("m0") == 0
        assert state.free_gpus(machine="m0") == []
        assert state.max_free_count() == 0
        assert not state.is_machine_up("m0")

    def test_recovery_restores_capacity(self, minsky):
        state = AllocationState(minsky)
        state.set_machine_down("m0")
        state.set_machine_up("m0")
        assert state.free_count("m0") == 4
        assert state.is_machine_up("m0")

    def test_global_free_list_excludes_down_machines(self):
        topo = cluster(2)
        state = AllocationState(topo)
        state.set_machine_down("m0")
        assert all(g.startswith("m1/") for g in state.free_gpus())

    def test_unknown_machine_rejected(self, minsky):
        state = AllocationState(minsky)
        with pytest.raises(AllocationError):
            state.set_machine_down("m9")

    def test_down_returns_running_jobs(self, minsky):
        state = AllocationState(minsky)
        state.allocate("a", ["m0/gpu0"])
        assert state.set_machine_down("m0") == ["a"]

    def test_spanning_victim_touches_its_healthy_machines(self):
        # the survivor's neighbours on m1 speed up once the job dies
        state = ClusterState(cluster(2))
        gpus = frozenset({"m0/gpu0", "m1/gpu0"})
        state.alloc.allocate("span", gpus)
        state.running["span"] = RunningJob(
            job=make_job("span"), gpus=gpus, remaining=5.0, rate=1.0
        )
        victims, touched = state.fail_machine("m0")
        assert [v.job.job_id for v in victims] == ["span"]
        assert touched == {"m0", "m1"}


class TestFailureValidation:
    def test_unknown_machine_in_failure_rejected(self):
        with pytest.raises(ValueError, match="unknown machine"):
            simulate([make_job("a")], [MachineFailure("m9", 1.0)])

    def test_bad_failure_params_rejected(self):
        with pytest.raises(ValueError):
            MachineFailure("m0", -1.0)
        with pytest.raises(ValueError):
            MachineFailure("m0", 1.0, duration_s=0.0)


class TestFailureDynamics:
    def test_job_restarts_on_surviving_machine(self):
        job = make_job("a", num_gpus=2, iterations=500, arrival_time=0.0)
        result = simulate(
            [job], [MachineFailure("m0", at_time=10.0)]  # permanent
        )
        rec = result.record_of("a")
        assert rec.restarts == 1
        assert rec.finished_at is not None
        assert all(g.startswith("m1/") for g in rec.gpus)
        # the restart threw away ~10s of progress
        assert rec.finished_at > 10.0 + rec.solo_exec_time - 1e-6

    def test_failure_of_idle_machine_is_harmless(self):
        job = make_job("a", num_gpus=2, iterations=100)
        clean = simulate([job], [])
        failed = simulate([job], [MachineFailure("m1", at_time=5.0)])
        assert failed.record_of("a").restarts == 0
        assert failed.record_of("a").finished_at == pytest.approx(
            clean.record_of("a").finished_at
        )

    def test_machine_reused_after_recovery(self):
        # single machine: the job MUST wait for recovery
        job = make_job("a", num_gpus=2, iterations=500, arrival_time=0.0)
        result = simulate(
            [job],
            [MachineFailure("m0", at_time=5.0, duration_s=50.0)],
            topo=power8_minsky(),
        )
        rec = result.record_of("a")
        assert rec.restarts == 1
        assert rec.placed_at == pytest.approx(55.0)
        assert rec.finished_at is not None

    def test_all_machines_dead_marks_unplaceable(self):
        job = make_job("a", num_gpus=2, iterations=500, arrival_time=0.0)
        result = simulate(
            [job],
            [MachineFailure("m0", 5.0), MachineFailure("m1", 5.0)],
        )
        rec = result.record_of("a")
        assert rec.finished_at is None
        assert rec.unplaceable

    def test_restart_counts_accumulate(self):
        job = make_job("a", num_gpus=2, iterations=2000, arrival_time=0.0)
        result = simulate(
            [job],
            [
                MachineFailure("m0", at_time=10.0, duration_s=1000.0),
                MachineFailure("m1", at_time=30.0, duration_s=1000.0),
            ],
        )
        rec = result.record_of("a")
        assert rec.restarts == 2
        assert rec.finished_at is not None

    def test_greedy_schedulers_survive_failures_too(self):
        jobs = [
            make_job("a", num_gpus=2, iterations=300, arrival_time=0.0),
            make_job("b", num_gpus=1, iterations=300, arrival_time=1.0),
        ]
        for name in ("FCFS", "BF", "RANDOM"):
            result = simulate(
                jobs, [MachineFailure("m0", 10.0, duration_s=100.0)],
                scheduler=name,
            )
            for rec in result.records:
                assert rec.finished_at is not None, (name, rec.job.job_id)
