"""Placement-memo behaviour: hits, invalidation, bounds, equivalence.

The memo must be an invisible optimisation: every answer it replays
has to be field-for-field what a cold engine would compute.  Entries
are keyed on the allocation digest, so a changed allocation misses
while one that *returns* to a previously seen state replays the warm
answer across allocation epochs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.placement import PlacementEngine
from repro.topology.allocation import AllocationState
from repro.topology.builders import cluster, dgx2
from repro.workload.job import ModelType

from tests.conftest import make_job


def _solution_fields(solution):
    if solution is None:
        return None
    return (
        solution.gpus,
        dict(solution.task_mapping),
        solution.metrics,
        solution.pool,
        solution.p2p,
    )


class TestMemoHits:
    def test_second_identical_propose_hits(self, minsky):
        engine = PlacementEngine(minsky, AllocationState(minsky))
        job_a = make_job("a", num_gpus=2)
        job_b = make_job("b", num_gpus=2)
        first = engine.propose(job_a)
        second = engine.propose(job_b)
        assert engine.stats.misses == 1
        assert engine.stats.hits == 1
        # identical placement, re-labelled for the asking job
        assert first.job_id == "a" and second.job_id == "b"
        assert _solution_fields(first) == _solution_fields(second)

    def test_no_fit_is_memoised_too(self, minsky):
        engine = PlacementEngine(minsky, AllocationState(minsky))
        giant = make_job("g", num_gpus=5)  # minsky has 4 GPUs
        assert engine.propose(giant) is None
        assert engine.propose(make_job("g2", num_gpus=5)) is None
        assert engine.stats.hits == 1 and engine.stats.misses == 1

    def test_different_class_misses(self, minsky):
        engine = PlacementEngine(minsky, AllocationState(minsky))
        engine.propose(make_job("a", num_gpus=2))
        engine.propose(make_job("b", num_gpus=1))
        assert engine.stats.misses == 2 and engine.stats.hits == 0

    def test_hit_rate(self, minsky):
        engine = PlacementEngine(minsky, AllocationState(minsky))
        assert engine.stats.hit_rate == 0.0
        engine.propose(make_job("a", num_gpus=2))
        engine.propose(make_job("b", num_gpus=2))
        assert engine.stats.hit_rate == pytest.approx(0.5)


class TestInvalidation:
    def test_allocate_flushes(self, minsky):
        alloc = AllocationState(minsky)
        engine = PlacementEngine(minsky, alloc)
        engine.propose(make_job("a", num_gpus=2))
        alloc.allocate("other", minsky.gpus()[:1])
        engine.propose(make_job("b", num_gpus=2))
        assert engine.stats.misses == 2
        assert engine.stats.hits == 0
        assert engine.stats.invalidations == 1

    def test_release_flushes(self, minsky):
        alloc = AllocationState(minsky)
        engine = PlacementEngine(minsky, alloc)
        alloc.allocate("other", minsky.gpus()[:1])
        engine.propose(make_job("a", num_gpus=2))
        alloc.release("other")
        engine.propose(make_job("b", num_gpus=2))
        assert engine.stats.misses == 2 and engine.stats.hits == 0

    def test_machine_health_flushes(self):
        topo = cluster(2)
        alloc = AllocationState(topo)
        engine = PlacementEngine(topo, alloc)
        engine.propose(make_job("a", num_gpus=2))
        down = topo.machines()[1]
        alloc.set_machine_down(down)
        solution = engine.propose(make_job("b", num_gpus=2))
        assert engine.stats.misses == 2 and engine.stats.hits == 0
        assert down not in {topo.machine_of(g) for g in solution.gpus}

    def test_enforce_flushes_own_memo(self, minsky):
        engine = PlacementEngine(minsky, AllocationState(minsky))
        solution = engine.propose(make_job("a", num_gpus=2))
        engine.enforce(solution)
        engine.propose(make_job("b", num_gpus=2))
        assert engine.stats.misses == 2 and engine.stats.hits == 0


class TestCrossEpochReplay:
    """Entries survive epoch rotations: a pool that returns to a
    previously seen identity replays the warm answer."""

    def test_release_back_to_seen_pool_hits(self, minsky):
        alloc = AllocationState(minsky)
        engine = PlacementEngine(minsky, alloc)
        engine.propose(make_job("a", num_gpus=2))
        alloc.allocate("other", minsky.gpus()[:1])
        alloc.release("other")  # pool identity restored
        second = engine.propose(make_job("b", num_gpus=2))
        assert engine.stats.hits == 1 and engine.stats.misses == 1
        assert second.job_id == "b"

    def test_heartbeat_keeps_memo_warm(self):
        topo = cluster(2)
        alloc = AllocationState(topo)
        engine = PlacementEngine(topo, alloc)
        engine.propose(make_job("a", num_gpus=2))
        alloc.set_machine_up(topo.machines()[0])  # health no-op
        engine.propose(make_job("b", num_gpus=2))
        assert engine.stats.hits == 1
        assert engine.stats.invalidations == 0

    def test_different_pool_identity_misses_even_at_equal_counts(self):
        # same free *count* but different free *GPUs*: must miss, the
        # seed engine would compute over a different candidate pool
        topo = cluster(2)
        alloc = AllocationState(topo)
        engine = PlacementEngine(topo, alloc)
        gpus = topo.gpus(machine=topo.machines()[0])
        alloc.allocate("x", gpus[:1])
        engine.propose(make_job("a", num_gpus=2))
        alloc.release("x")
        alloc.allocate("y", gpus[1:2])
        engine.propose(make_job("b", num_gpus=2))
        assert engine.stats.hits == 0 and engine.stats.misses == 2

    def test_empty_and_full_view_miss_each_other(self, minsky):
        # same allocation, same digest: the view's size keeps the empty
        # view (a caller that omits co_runners) from replaying the full
        # view's answer
        alloc = AllocationState(minsky)
        engine = PlacementEngine(minsky, alloc)
        gpus = minsky.gpus()
        alloc.allocate("r1", gpus[:1])
        co = {"r1": (make_job("r1", num_gpus=1), frozenset(gpus[:1]))}
        engine.propose(make_job("a", num_gpus=2), co)
        engine.propose(make_job("b", num_gpus=2))
        assert engine.stats.hits == 0 and engine.stats.misses == 2
        engine.propose(make_job("c", num_gpus=2), co)
        engine.propose(make_job("d", num_gpus=2), {})
        assert engine.stats.hits == 2


class TestCoRunnerOrder:
    """Proposals read co-runners only by point lookups of the jobs the
    allocator places on a machine, so the view's iteration order never
    reaches a result — which is why the memo key leaves it out."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(list(ModelType)),
                st.sampled_from([1, 2, 4]),
                st.integers(min_value=1, max_value=2),
            ),
            min_size=4,
            max_size=14,
        ),
        st.randoms(use_true_random=False),
        st.tuples(
            st.sampled_from(list(ModelType)),
            st.integers(min_value=1, max_value=4),
        ),
    )
    def test_cold_propose_ignores_view_order(self, runners, rnd, probe):
        # NVSwitch machines: every co-runner on a machine shares the
        # fabric, so interference sums have many terms and would show
        # a visit-order dependence in their low bits
        topo = cluster(2, dgx2)
        alloc = AllocationState(topo)
        filler = PlacementEngine(topo, alloc, memo_size=0)
        co = {}
        for i, (model, batch, n_gpus) in enumerate(runners):
            job = make_job(f"r{i}", model=model, batch_size=batch,
                           num_gpus=n_gpus)
            solution = filler.propose(job, co)
            if solution is None:
                continue
            filler.enforce(solution)
            co[job.job_id] = (job, frozenset(solution.gpus))
        order = list(co)
        rnd.shuffle(order)
        shuffled = {k: co[k] for k in order}
        job = make_job("q", model=probe[0], num_gpus=probe[1])
        a = PlacementEngine(topo, alloc, memo_size=0).propose(job, co)
        b = PlacementEngine(topo, alloc, memo_size=0).propose(job, shuffled)
        assert _solution_fields(a) == _solution_fields(b)


class TestBounds:
    def test_memo_is_lru_bounded(self, minsky):
        engine = PlacementEngine(minsky, AllocationState(minsky), memo_size=3)
        for n in (1, 2, 3, 4):
            engine.propose(make_job(f"j{n}", num_gpus=n))
        assert len(engine._memo) == 3
        # the oldest class (num_gpus=1) was evicted: proposing it again misses
        engine.propose(make_job("again", num_gpus=1))
        assert engine.stats.hits == 0

    def test_memo_size_zero_disables(self, minsky):
        engine = PlacementEngine(minsky, AllocationState(minsky), memo_size=0)
        engine.propose(make_job("a", num_gpus=2))
        engine.propose(make_job("b", num_gpus=2))
        assert engine.stats.hits == 0 and engine.stats.misses == 0
        assert len(engine._memo) == 0


class TestEquivalence:
    """Memoised and cold engines must agree on every proposal."""

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(list(ModelType)),
                st.sampled_from([1, 2, 4, 8]),
                st.integers(min_value=1, max_value=4),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_memo_vs_cold_propose(self, specs):
        topo = cluster(2)
        alloc = AllocationState(topo)
        warm = PlacementEngine(topo, alloc)
        cold = PlacementEngine(topo, alloc, memo_size=0)
        for i, (model, batch, n_gpus) in enumerate(specs):
            job = make_job(f"j{i}", model=model, batch_size=batch, num_gpus=n_gpus)
            assert _solution_fields(warm.propose(job)) == _solution_fields(
                cold.propose(job)
            )
        assert warm.stats.lookups == len(specs)

    def test_memo_vs_cold_through_allocation_churn(self, minsky):
        alloc = AllocationState(minsky)
        warm = PlacementEngine(minsky, alloc)
        cold = PlacementEngine(minsky, alloc, memo_size=0)
        placed = []
        for i in range(4):
            job = make_job(f"j{i}", num_gpus=1)
            a, b = warm.propose(job), cold.propose(job)
            assert _solution_fields(a) == _solution_fields(b)
            if a is not None:
                warm.enforce(a)
                placed.append(job.job_id)
        for job_id in placed:
            alloc.release(job_id)
            job = make_job(f"after-{job_id}", num_gpus=2)
            assert _solution_fields(warm.propose(job)) == _solution_fields(
                cold.propose(job)
            )
