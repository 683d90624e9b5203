"""Admission control and the priority inbox."""

from repro.service.queue import QueueManager
from repro.workload.job import Job, ModelType


def make_job(job_id: str, num_gpus: int = 2, **kwargs) -> Job:
    return Job(job_id, ModelType.ALEXNET, 4, num_gpus, **kwargs)


def push(q: QueueManager, job: Job, priority: int = 0):
    """The daemon's submit path: reserve, then publish when admitted."""
    decision = q.admit_and_reserve(job)
    if decision.admitted:
        q.enqueue(job, priority)
    return decision


class TestAdmission:
    def test_admitted(self):
        q = QueueManager(total_gpus=8)
        decision = push(q, make_job("a"))
        assert decision.admitted and decision.reason == "admitted"

    def test_duplicate_ids_are_reserved_forever(self):
        q = QueueManager(total_gpus=8)
        push(q, make_job("a"))
        assert q.admit_and_reserve(make_job("a")).reason == "duplicate"
        # even after the job retires, its id stays burned
        q.pop_batch()
        q.retire("a")
        assert push(q, make_job("a")).reason == "duplicate"

    def test_over_capacity_rejected(self):
        q = QueueManager(total_gpus=8)
        decision = push(q, make_job("big", num_gpus=9))
        assert not decision.admitted
        assert decision.reason == "over-capacity"
        assert len(q) == 0

    def test_queue_full_counts_backlog_not_inbox(self):
        q = QueueManager(total_gpus=8, max_depth=2)
        push(q, make_job("a"))
        push(q, make_job("b"))
        # the inbox being drained does NOT free the budget: the jobs
        # are still live inside the service
        q.pop_batch()
        assert push(q, make_job("c")).reason == "queue-full"
        # a terminal transition does free it
        q.retire("a")
        assert push(q, make_job("c")).reason == "admitted"

    def test_admit_is_pure(self):
        """A refused submission claims nothing: no inbox entry, no
        depth budget, and its id stays free."""
        q = QueueManager(total_gpus=8, max_depth=1)
        assert q.admit_and_reserve(make_job("big", num_gpus=9)).reason == "over-capacity"
        assert len(q) == 0 and q.depth == 0
        assert push(q, make_job("a")).admitted
        assert q.admit_and_reserve(make_job("b")).reason == "queue-full"
        assert len(q) == 1 and q.depth == 1
        q.retire("a")
        assert push(q, make_job("big", num_gpus=8)).admitted


class TestDrainOrder:
    def test_highest_priority_first_then_fifo(self):
        q = QueueManager(total_gpus=8)
        push(q, make_job("low1"), priority=0)
        push(q, make_job("hi"), priority=5)
        push(q, make_job("low2"), priority=0)
        drained = [e.job.job_id for e in q.pop_batch()]
        assert drained == ["hi", "low1", "low2"]

    def test_pop_batch_respects_limit(self):
        q = QueueManager(total_gpus=8)
        for i in range(5):
            push(q, make_job(f"j{i}"))
        assert len(q.pop_batch(2)) == 2
        assert len(q) == 3

    def test_restore_bypasses_admission(self):
        q = QueueManager(total_gpus=8, max_depth=1)
        push(q, make_job("a"))
        # recovery must re-seat journaled jobs even past the depth cap
        q.restore(make_job("b"), priority=3)
        assert q.depth == 2
        assert q.admit_and_reserve(make_job("b")).reason == "duplicate"

    def test_two_phase_reserve_then_enqueue(self):
        """The daemon's submit ordering: a reserved job consumes its
        id and depth budget immediately but stays invisible to
        pop_batch until enqueue() publishes it."""
        q = QueueManager(total_gpus=8)
        job = make_job("a")
        assert q.admit_and_reserve(job).admitted
        assert q.depth == 1 and len(q) == 0
        assert q.admit_and_reserve(make_job("a")).reason == "duplicate"
        assert q.pop_batch() == []
        q.enqueue(job)
        assert [e.job.job_id for e in q.pop_batch()] == ["a"]

    def test_depth_vs_len(self):
        q = QueueManager(total_gpus=8)
        push(q, make_job("a"))
        push(q, make_job("b"))
        assert len(q) == 2 and q.depth == 2
        q.pop_batch()
        assert len(q) == 0 and q.depth == 2
        q.retire("a")
        assert q.depth == 1
