"""Tests for the SJF and EASY-backfill baselines."""

from repro.schedulers import BackfillScheduler, SJFScheduler, make_scheduler
from repro.sim.engine import Simulator
from repro.topology.builders import power8_minsky
from repro.workload.job import Job, ModelType

from tests.conftest import make_job
from tests.schedulers.test_base import make_ctx


class TestSJF:
    def test_factory(self):
        assert isinstance(make_scheduler("SJF"), SJFScheduler)

    def test_orders_by_estimated_duration(self):
        ctx = make_ctx()
        sched = SJFScheduler()
        # long tiny-batch AlexNet arrives first, short GoogLeNet second
        long_job = Job("long", ModelType.ALEXNET, 1, 2, arrival_time=0.0,
                       iterations=4000)
        short_job = Job("short", ModelType.ALEXNET, 1, 2, arrival_time=1.0,
                        iterations=10)
        sched.submit(long_job)
        sched.submit(short_job)
        placed = sched.schedule(ctx)
        assert [s.job_id for s in placed] == ["short", "long"]

    def test_estimates_reflect_model_and_batch(self):
        sched = SJFScheduler()
        fast = make_job("fast", batch_size=1, num_gpus=1, iterations=100)
        slow = Job("slow", ModelType.GOOGLENET, 128, 1, iterations=100)
        assert sched.estimated_duration(fast) < sched.estimated_duration(slow)

    def test_skips_unplaceable(self):
        ctx = make_ctx()
        sched = SJFScheduler()
        sched.submit(make_job("whale", num_gpus=8, iterations=10))
        sched.submit(make_job("minnow", num_gpus=1, iterations=10))
        placed = sched.schedule(ctx)
        assert [s.job_id for s in placed] == ["minnow"]

    def test_full_simulation_completes(self):
        jobs = [
            make_job(f"j{i}", num_gpus=1 + i % 2, iterations=100,
                     arrival_time=float(i))
            for i in range(8)
        ]
        result = Simulator(power8_minsky(), SJFScheduler(), jobs).run()
        assert all(r.finished_at is not None for r in result.records)


class TestBackfill:
    def test_factory_aliases(self):
        for name in ("EASY-BACKFILL", "backfill", "easy"):
            assert isinstance(make_scheduler(name), BackfillScheduler)

    def test_backfills_only_jobs_finishing_before_reservation(self):
        ctx = make_ctx()
        sched = BackfillScheduler()
        # occupy 3 of 4 GPUs with a known-length job
        runner = make_job("runner", num_gpus=3, batch_size=1, iterations=1000)
        gpus = ("m0/gpu0", "m0/gpu1", "m0/gpu2")
        sol = ctx.engine.score_allocation(runner, gpus, {})
        ctx.engine.enforce(sol)
        ctx.co_runners = {"runner": (runner, frozenset(gpus))}
        sched._estimated_end["runner"] = ctx.now + sched.estimated_duration(runner)

        # head needs 2 GPUs -> blocked until runner finishes
        head = make_job("head", num_gpus=2, iterations=100, arrival_time=0.0)
        # shorty fits now and ends before the reservation
        shorty = make_job("shorty", num_gpus=1, iterations=10, arrival_time=1.0)
        # hog fits now but would outlive the reservation
        hog = make_job("hog", num_gpus=1, iterations=100_000, arrival_time=2.0)
        for j in (head, shorty, hog):
            sched.submit(j)
        placed = sched.schedule(ctx)
        assert [s.job_id for s in placed] == ["shorty"]
        # head and hog stay queued, in order
        assert [j.job_id for j in sched.queued_jobs()] == ["head", "hog"]

    def test_fifo_when_everything_fits(self):
        ctx = make_ctx()
        sched = BackfillScheduler()
        sched.submit(make_job("a", num_gpus=2, arrival_time=0.0, iterations=50))
        sched.submit(make_job("b", num_gpus=2, arrival_time=1.0, iterations=50))
        placed = sched.schedule(ctx)
        assert [s.job_id for s in placed] == ["a", "b"]

    def test_head_never_starved_in_simulation(self):
        """The reservation guarantee: a steady stream of short 1-GPU
        jobs must not push back a waiting 4-GPU job indefinitely."""
        jobs = [make_job("big", num_gpus=4, arrival_time=0.0, iterations=400)]
        jobs += [
            make_job(f"s{i}", num_gpus=1, arrival_time=0.1 + 0.5 * i,
                     iterations=50)
            for i in range(12)
        ]
        # one 4-GPU machine: big runs first (FIFO), shorts backfill later
        result = Simulator(power8_minsky(), BackfillScheduler(), jobs).run()
        assert all(r.finished_at is not None for r in result.records)

    def test_backfill_beats_fcfs_waiting(self):
        """Backfilling must strictly improve on plain FCFS waiting time
        for a blocked-head workload."""
        from repro.sim.metrics import mean_waiting_time

        jobs = [
            make_job("w1", num_gpus=3, arrival_time=0.0, iterations=300),
            make_job("w2", num_gpus=3, arrival_time=1.0, iterations=300),
            make_job("tiny", num_gpus=1, arrival_time=2.0, iterations=20),
        ]
        fcfs = Simulator(power8_minsky(), make_scheduler("FCFS"), jobs).run()
        easy = Simulator(power8_minsky(), BackfillScheduler(), jobs).run()
        assert mean_waiting_time(easy.records) < mean_waiting_time(fcfs.records)
