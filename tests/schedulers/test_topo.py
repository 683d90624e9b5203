"""Tests for the TOPO-AWARE / TOPO-AWARE-P policies (Algorithm 1)."""

import pytest

from repro.schedulers import TopoAwareScheduler

from tests.conftest import make_job
from tests.schedulers.test_base import make_ctx


class TestTopoAware:
    def test_places_best_available_immediately(self):
        ctx = make_ctx()
        sched = TopoAwareScheduler(postpone=False)
        sched.submit(make_job("a", num_gpus=2, batch_size=1))
        (sol,) = sched.schedule(ctx)
        assert sol.p2p and sol.utility == pytest.approx(1.0)

    def test_accepts_bad_placement_without_postpone(self):
        ctx = make_ctx()
        # fragment the machine: only cross-socket GPUs left
        ctx.alloc.allocate("x", ["m0/gpu1"])
        ctx.alloc.allocate("y", ["m0/gpu3"])
        sched = TopoAwareScheduler(postpone=False)
        sched.submit(make_job("a", num_gpus=2, batch_size=1, min_utility=0.5))
        (sol,) = sched.schedule(ctx)
        assert not sol.p2p  # placed anyway, "without consideration"

    def test_requeues_infeasible_and_continues(self):
        ctx = make_ctx()
        sched = TopoAwareScheduler(postpone=False)
        sched.submit(make_job("big", num_gpus=8, arrival_time=0.0))
        sched.submit(make_job("small", num_gpus=1, arrival_time=1.0))
        placed = sched.schedule(ctx)
        assert [s.job_id for s in placed] == ["small"]


class TestTopoAwareP:
    def test_postpones_non_p2p_for_p2p_job(self):
        ctx = make_ctx()
        ctx.alloc.allocate("x", ["m0/gpu1"])
        ctx.alloc.allocate("y", ["m0/gpu3"])
        ctx.co_runners = {
            "x": (make_job("x", num_gpus=1), frozenset(["m0/gpu1"])),
            "y": (make_job("y", num_gpus=1), frozenset(["m0/gpu3"])),
        }
        sched = TopoAwareScheduler(postpone=True)
        job = make_job("a", num_gpus=2, batch_size=1, min_utility=0.5)
        sched.submit(job)
        assert sched.schedule(ctx) == []
        assert sched.postponements["a"] == 1
        assert sched.queue_length() == 1

    def test_places_once_p2p_frees_up(self):
        ctx = make_ctx()
        ctx.alloc.allocate("x", ["m0/gpu1"])
        ctx.co_runners = {
            "x": (make_job("x", num_gpus=1), frozenset(["m0/gpu1"])),
        }
        sched = TopoAwareScheduler(postpone=True)
        sched.submit(make_job("a", num_gpus=2, batch_size=1, min_utility=0.5))
        (sol,) = sched.schedule(ctx)
        assert sol.p2p
        assert sorted(sol.gpus) == ["m0/gpu2", "m0/gpu3"]

    def test_does_not_wait_for_unattainable_p2p(self):
        """A 4-GPU P2P demand cannot be met on Minsky (islands of 2):
        the scheduler must not postpone forever."""
        ctx = make_ctx()
        ctx.alloc.allocate("x", ["m0/gpu0"])
        ctx.co_runners = {
            "x": (make_job("x", num_gpus=1), frozenset(["m0/gpu0"])),
        }
        sched = TopoAwareScheduler(postpone=True)
        sched.submit(make_job("a", num_gpus=3, batch_size=1, min_utility=0.0))
        (sol,) = sched.schedule(ctx)
        assert sol.job_id == "a"

    def test_places_when_nothing_running(self):
        """With an empty cluster the state cannot improve: place."""
        ctx = make_ctx()
        sched = TopoAwareScheduler(postpone=True)
        # min_utility=1.0 is unreachable on a fragmented pool, but the
        # machine is empty so the best placement is already optimal
        sched.submit(make_job("a", num_gpus=4, batch_size=128, min_utility=1.0))
        (sol,) = sched.schedule(ctx)
        assert sol.job_id == "a"

    def test_postponement_budget_forces_placement(self):
        ctx = make_ctx()
        ctx.alloc.allocate("x", ["m0/gpu1"])
        ctx.alloc.allocate("y", ["m0/gpu3"])
        ctx.co_runners = {
            "x": (make_job("x", num_gpus=1), frozenset(["m0/gpu1"])),
            "y": (make_job("y", num_gpus=1), frozenset(["m0/gpu3"])),
        }
        sched = TopoAwareScheduler(postpone=True, max_postponements=2)
        sched.submit(make_job("a", num_gpus=2, batch_size=1, min_utility=0.5))
        assert sched.schedule(ctx) == []
        assert sched.schedule(ctx) == []
        (sol,) = sched.schedule(ctx)  # budget exhausted
        assert sol.job_id == "a"

    def test_out_of_order_execution(self):
        """A postponed job must not block later satisfiable jobs."""
        ctx = make_ctx()
        ctx.alloc.allocate("x", ["m0/gpu1"])
        ctx.co_runners = {
            "x": (make_job("x", num_gpus=1, batch_size=1), frozenset(["m0/gpu1"])),
        }
        sched = TopoAwareScheduler(postpone=True)
        # head wants P2P pair; only gpu0 + socket1 remain -> it can get
        # socket1; make it want 2 GPUs with utility 1.0 to force postpone
        sched.submit(
            make_job("head", num_gpus=2, batch_size=1, min_utility=1.0,
                     arrival_time=0.0)
        )
        sched.submit(
            make_job("tail", num_gpus=1, batch_size=128, min_utility=0.0,
                     arrival_time=1.0)
        )
        placed = sched.schedule(ctx)
        assert "tail" in [s.job_id for s in placed]
