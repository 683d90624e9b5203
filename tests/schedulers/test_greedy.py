"""Tests for the FCFS and Best-Fit greedy baselines."""

from repro.schedulers import BestFitScheduler, FCFSScheduler, RandomScheduler
from repro.topology.builders import cluster

from tests.conftest import make_job
from tests.schedulers.test_base import make_ctx


class TestFCFS:
    def test_first_fit_lowest_gpu_ids(self):
        ctx = make_ctx()
        sched = FCFSScheduler()
        sched.submit(make_job("a", num_gpus=2))
        (sol,) = sched.schedule(ctx)
        assert sol.gpus == ("m0/gpu0", "m0/gpu1")

    def test_strict_fifo_head_blocks(self):
        ctx = make_ctx()
        sched = FCFSScheduler()
        sched.submit(make_job("big", num_gpus=8, arrival_time=0.0))
        sched.submit(make_job("small", num_gpus=1, arrival_time=1.0))
        placed = sched.schedule(ctx)
        assert placed == []  # the 8-GPU head blocks everyone
        assert sched.queue_length() == 2

    def test_places_in_arrival_order(self):
        ctx = make_ctx()
        sched = FCFSScheduler()
        sched.submit(make_job("second", num_gpus=2, arrival_time=2.0))
        sched.submit(make_job("first", num_gpus=2, arrival_time=1.0))
        placed = sched.schedule(ctx)
        assert [s.job_id for s in placed] == ["first", "second"]
        # first job got the lowest ids
        assert placed[0].gpus == ("m0/gpu0", "m0/gpu1")

    def test_topology_blind_splits_across_sockets(self):
        ctx = make_ctx()
        ctx.alloc.allocate("x", ["m0/gpu0"])
        sched = FCFSScheduler()
        sched.submit(make_job("a", num_gpus=2))
        (sol,) = sched.schedule(ctx)
        assert sol.gpus == ("m0/gpu1", "m0/gpu2")  # crosses the socket line
        assert not sol.p2p


class TestBestFit:
    def test_backfills_past_blocked_head(self):
        ctx = make_ctx()
        sched = BestFitScheduler()
        sched.submit(make_job("big", num_gpus=8, arrival_time=0.0))
        sched.submit(make_job("small", num_gpus=1, arrival_time=1.0))
        placed = sched.schedule(ctx)
        assert [s.job_id for s in placed] == ["small"]
        assert sched.queue_length() == 1

    def test_picks_tightest_machine(self):
        topo = cluster(2)
        ctx = make_ctx(topo)
        ctx.alloc.allocate("x", ["m1/gpu0", "m1/gpu1"])  # m1 has 2 free
        sched = BestFitScheduler()
        sched.submit(make_job("a", num_gpus=2))
        (sol,) = sched.schedule(ctx)
        assert {topo.machine_of(g) for g in sol.gpus} == {"m1"}

    def test_fills_most_used_socket_first(self):
        ctx = make_ctx()
        ctx.alloc.allocate("x", ["m0/gpu0"])  # socket0 partially used
        sched = BestFitScheduler()
        sched.submit(make_job("a", num_gpus=1))
        (sol,) = sched.schedule(ctx)
        assert sol.gpus == ("m0/gpu1",)  # bin packs into socket0

    def test_places_multiple_jobs_one_round(self):
        ctx = make_ctx()
        sched = BestFitScheduler()
        sched.submit(make_job("a", num_gpus=2, arrival_time=0.0))
        sched.submit(make_job("b", num_gpus=2, arrival_time=1.0))
        placed = sched.schedule(ctx)
        assert len(placed) == 2
        used = {g for s in placed for g in s.gpus}
        assert len(used) == 4  # no overlap within the round


class TestRandom:
    def test_deterministic_under_seed(self):
        a = RandomScheduler(seed=3)
        b = RandomScheduler(seed=3)
        ctx_a, ctx_b = make_ctx(), make_ctx()
        a.submit(make_job("j", num_gpus=2))
        b.submit(make_job("j", num_gpus=2))
        assert a.schedule(ctx_a)[0].gpus == b.schedule(ctx_b)[0].gpus

    def test_only_feasible_machines(self):
        topo = cluster(2)
        ctx = make_ctx(topo)
        ctx.alloc.allocate("x", topo.gpus(machine="m0"))
        sched = RandomScheduler(seed=0)
        sched.submit(make_job("j", num_gpus=4))
        (sol,) = sched.schedule(ctx)
        assert {topo.machine_of(g) for g in sol.gpus} == {"m1"}

    def test_skips_unplaceable(self):
        ctx = make_ctx()
        sched = RandomScheduler(seed=0)
        sched.submit(make_job("j", num_gpus=8))
        assert sched.schedule(ctx) == []
