"""Durable sqlite journal: round-trips and crash recovery."""

import sqlite3

import pytest

from repro.service.statemachine import JobState
from repro.service.store import ServiceStore
from repro.workload.job import CommPattern, Job, ModelType


def fancy_job(job_id: str = "j1") -> Job:
    """A job exercising every manifest field away from its default."""
    return Job(
        job_id,
        ModelType.GOOGLENET,
        batch_size=32,
        num_gpus=3,
        min_utility=0.75,
        arrival_time=123.456789,
        iterations=9999,
        anti_collocation=True,
        single_node=False,
        p2p=True,
        comm_pattern=CommPattern.MODEL_PARALLEL_RING,
        tags=("trace", "restart"),
    )


class TestRoundTrip:
    def test_job_survives_the_journal_bit_identically(self, tmp_path):
        path = tmp_path / "svc.db"
        job = fancy_job()
        with ServiceStore(path) as store:
            store.journal_submission(job, 7, JobState.SUBMITTED)
        with ServiceStore(path) as store:
            stored = store.load_job("j1")
        # frozen dataclass equality: every field, == (floats included)
        assert stored.job == job
        assert stored.priority == 7
        assert stored.state is JobState.SUBMITTED

    def test_unknown_job_is_none(self, tmp_path):
        with ServiceStore(tmp_path / "svc.db") as store:
            assert store.load_job("ghost") is None

    def test_transition_history_append_order(self, tmp_path):
        clock_values = iter([1.0, 2.0, 3.0, 4.0])
        with ServiceStore(
            tmp_path / "svc.db", clock=lambda: next(clock_values)
        ) as store:
            store.journal_submission(fancy_job(), 0, JobState.SUBMITTED)
            store.journal_transition("j1", JobState.SUBMITTED, JobState.QUEUED)
            store.journal_transition("j1", JobState.QUEUED, JobState.PLACED)
            rows = store.transitions("j1")
        assert rows == [
            ("j1", None, "SUBMITTED", 1.0),
            ("j1", "SUBMITTED", "QUEUED", 2.0),
            ("j1", "QUEUED", "PLACED", 3.0),
        ]


class TestCrashRecovery:
    def test_recovery_is_bit_identical_and_skips_terminal(self, tmp_path):
        """Kill-and-restart: a second store on the same file sees the
        exact queue the first one journaled, terminal rows excluded."""
        path = tmp_path / "svc.db"
        jobs = [fancy_job(f"j{i}") for i in range(4)]
        store = ServiceStore(path)
        for i, job in enumerate(jobs):
            store.journal_submission(job, i, JobState.SUBMITTED)
        store.journal_transition("j0", JobState.SUBMITTED, JobState.QUEUED)
        store.journal_transition("j1", JobState.SUBMITTED, JobState.CANCELLED)
        # no close(): simulate an unclean death — WAL must still hold
        # every committed transaction
        reopened = ServiceStore(path)
        recovered = reopened.recover()
        assert [s.job.job_id for s in recovered] == ["j0", "j2", "j3"]
        assert recovered[0].state is JobState.QUEUED
        by_id = {s.job.job_id: s for s in recovered}
        for job in jobs:
            if job.job_id in by_id:
                assert by_id[job.job_id].job == job
                assert by_id[job.job_id].priority == int(job.job_id[1:])
        # all_jobs still surfaces the cancelled one (id bookkeeping)
        assert [s.job.job_id for s in reopened.all_jobs()] == [
            "j0",
            "j1",
            "j2",
            "j3",
        ]
        reopened.close()
        store.close()

    def test_current_state_is_denormalised(self, tmp_path):
        path = tmp_path / "svc.db"
        with ServiceStore(path) as store:
            store.journal_submission(fancy_job(), 0, JobState.SUBMITTED)
            store.journal_transition("j1", JobState.SUBMITTED, JobState.QUEUED)
            store.journal_transition("j1", JobState.QUEUED, JobState.FAILED)
        with ServiceStore(path) as store:
            assert store.load_job("j1").state is JobState.FAILED
            assert store.recover() == []


class TestAllOrNothingWrites:
    """A write that fails midway leaves nothing for a later commit."""

    @pytest.mark.parametrize("fail_at", [1, 2])
    def test_failed_submission_leaves_no_row(
        self, tmp_path, fail_nth_execute, fail_at
    ):
        path = tmp_path / "svc.db"
        with ServiceStore(path) as store:
            fail_nth_execute(store, fail_at)
            with pytest.raises(sqlite3.OperationalError):
                store.journal_submission(
                    fancy_job("lost"), 0, JobState.SUBMITTED
                )
            store.journal_submission(fancy_job("kept"), 0, JobState.SUBMITTED)
        with ServiceStore(path) as store:
            assert [s.job.job_id for s in store.all_jobs()] == ["kept"]
            assert [s.job.job_id for s in store.recover()] == ["kept"]
            assert [row[0] for row in store.transitions()] == ["kept"]
            assert store.transitions("lost") == []

    @pytest.mark.parametrize("fail_at", [1, 2])
    def test_failed_transition_leaves_the_state_alone(
        self, tmp_path, fail_nth_execute, fail_at
    ):
        path = tmp_path / "svc.db"
        with ServiceStore(path) as store:
            store.journal_submission(fancy_job("j1"), 0, JobState.SUBMITTED)
            fail_nth_execute(store, fail_at)
            with pytest.raises(sqlite3.OperationalError):
                store.journal_transition(
                    "j1", JobState.SUBMITTED, JobState.QUEUED
                )
            store.journal_submission(fancy_job("j2"), 0, JobState.SUBMITTED)
        with ServiceStore(path) as store:
            assert store.load_job("j1").state is JobState.SUBMITTED
            assert [row[1:3] for row in store.transitions("j1")] == [
                (None, "SUBMITTED")
            ]
            assert [s.job.job_id for s in store.all_jobs()] == ["j1", "j2"]
