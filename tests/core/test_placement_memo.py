"""Placement-memo behaviour: hits, invalidation, bounds, equivalence.

The memo must be an invisible optimisation: every answer it replays
has to be field-for-field what a cold engine would compute.  Entries
are keyed on the allocation digest, so a changed allocation misses
while one that *returns* to a previously seen state replays the warm
answer across allocation epochs.  A hit also replays the candidate-pool
report its miss built, so a recorded hit filters no hosts.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import placement
from repro.core.constraints import filter_hosts
from repro.core.placement import PlacementEngine
from repro.obs import trace
from repro.obs.provenance import DecisionRecorder
from repro.obs.trace import SpanRecorder
from repro.schedulers import make_scheduler
from repro.schedulers.topo import TopoAwareScheduler
from repro.service import SchedulerService
from repro.sim.cluster import ClusterState
from repro.sim.engine import Simulator
from repro.sim.runner import run_with_observers
from repro.topology.allocation import AllocationState
from repro.topology.builders import cluster, dgx1, dgx2, power8_pcie_k80
from repro.workload.generator import GeneratorConfig, WorkloadGenerator
from repro.workload.job import ModelType
from repro.workload.manifest import job_to_dict

from tests.conftest import make_job
from tests.schedulers.test_probe_pruning import _contended_trace


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


# ---------------------------------------------------------------------------
# the pool report a memo entry carries
# ---------------------------------------------------------------------------

def _rereport(engine, job, co_runners):
    """The pool report built from scratch: read-only host filtering."""
    report: dict = {}
    engine._candidate_pools(
        job, co_runners, report, engine.prefilter.readonly()
    )
    return report


class _Rechecked(PlacementEngine):
    """Rebuilds every hit's pool report and checks it equals the one
    the memo entry hands out; counts the checks, and those made while
    an eviction probe had a victim's GPUs freed."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checked = 0
        self.checked_in_probe = 0
        self.probing = False

    def _entry_report(self, entry, job, co_runners):
        stored = super()._entry_report(entry, job, co_runners)
        assert stored == _rereport(self, job, co_runners)
        self.checked += 1
        self.checked_in_probe += self.probing
        return stored


class _ReReported(PlacementEngine):
    """Ignores the stored report: every hit filters hosts again."""

    def _entry_report(self, entry, job, co_runners):
        return _rereport(self, job, co_runners)


class _ProbeFlagging(TopoAwareScheduler):
    """TOPO-AWARE-PM that tells the engine while its eviction passes
    run (every proposal there is a probe with a victim released)."""

    def _preempt_pass(self, ctx, *args):
        ctx.engine.probing = True
        try:
            return super()._preempt_pass(ctx, *args)
        finally:
            ctx.engine.probing = False

    def _defrag_pass(self, ctx, *args):
        ctx.engine.probing = True
        try:
            return super()._defrag_pass(ctx, *args)
        finally:
            ctx.engine.probing = False


def _install(state, engine_cls):
    state.engine = engine_cls(
        state.topo, state.alloc, state.params, state.engine.profiles,
        state.interference,
    )
    return state.engine


def _mixed_fleet():
    """Ten machines alternating DGX-1 and PCIe K80 boxes."""
    return cluster(
        10,
        lambda mid: dgx1(mid) if int(mid[1:]) % 2 else power8_pcie_k80(mid),
    )


@pytest.fixture
def filter_calls(monkeypatch):
    """Counts host-filtering passes of the engine."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2].job_id)
        return filter_hosts(*args, **kwargs)

    monkeypatch.setattr(placement, "filter_hosts", counted)
    return calls


class TestStoredReport:
    """A hit hands out the pool report its miss built: the report is a
    function of the memo key, so it equals a fresh read-only re-run on
    every hit — checked on every hit of interleaved proposals and of
    three recorded runs."""

    def test_daemon_taking_serve_style_submissions(self):
        service = SchedulerService(cluster(20), "TOPO-AWARE")
        engine = _install(service.sim.cluster, _Rechecked)
        jobs = WorkloadGenerator(GeneratorConfig(), seed=5).generate(60)
        with service:
            for i, job in enumerate(jobs):
                doc = job_to_dict(job)
                doc["id"] = f"s{i}"
                doc["arrival_time"] = 0.0
                service.submit(doc)
                assert service.drain()
        assert engine.stats.hits > 10
        assert engine.checked == engine.stats.hits

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=3), st.booleans()),
            min_size=2,
            max_size=24,
        )
    )
    def test_interleaved_classes_keep_their_own_reports(self, steps):
        # job classes whose reports differ (pool sizes, prune tallies,
        # a spanning pool), proposed in any order while a small job
        # comes and goes, so states recur and hits follow other misses
        topo = cluster(12)
        alloc = AllocationState(topo)
        engine = _Rechecked(topo, alloc)
        classes = [
            dict(num_gpus=1),
            dict(num_gpus=4),
            dict(num_gpus=2, anti_collocation=True),
            dict(num_gpus=8, single_node=False),
        ]
        held = topo.gpus(machine="m3")[:3]
        for i, (c, toggle) in enumerate(steps):
            if toggle:
                if alloc.owner_of(held[0]):
                    alloc.release("x")
                else:
                    alloc.allocate("x", held)
            engine.propose(make_job(f"j{i}", **classes[c]), provenance={})
        assert engine.checked == engine.stats.hits

    @pytest.mark.parametrize("fleet", [lambda: cluster(10), _mixed_fleet],
                             ids=["minsky", "dgx1-k80"])
    def test_eviction_probes_free_and_restore_victims(self, fleet):
        def run(recorded):
            topo = fleet()
            state = ClusterState(topo)
            engine = _install(state, _Rechecked)
            result = Simulator(
                topo,
                _ProbeFlagging(postpone=True, preempt=True),
                _contended_trace(7, 120, 0.3),
                cluster=state,
                observers=[DecisionRecorder()] if recorded else [],
            ).run()
            return result, engine

        result, engine = run(recorded=True)
        assert engine.checked == engine.stats.hits > 0
        assert engine.checked_in_probe > 0
        # the recorder stays a tap: same counters as a bare run
        bare, _ = run(recorded=False)
        assert result.placement_stats == bare.placement_stats
        assert result.prefilter_stats == bare.prefilter_stats

    def test_journal_is_byte_identical_to_rereporting_every_hit(
        self, monkeypatch, filter_calls
    ):
        def journal(engine_cls):
            # deterministic span and round clocks, so the timing fields
            # of the journal compare as bytes too
            ticks = itertools.count()
            clock = lambda: next(ticks) * 1e-6
            monkeypatch.setattr(SpanRecorder.__init__, "__defaults__", (clock,))
            topo = cluster(10)
            state = ClusterState(topo)
            engine = _install(state, engine_cls)
            # the `--decisions-out` wiring: a journaling recorder that
            # is also the span sink
            recorder = DecisionRecorder(journal=True)
            trace.install(recorder)
            try:
                run_with_observers(
                    topo, make_scheduler("TOPO-AWARE-PM"),
                    _contended_trace(7, 120, 0.3),
                    observers=[recorder], cluster=state, decision_clock=clock,
                )
            finally:
                trace.install(None)
            return "\n".join(recorder.journal), engine

        stored, engine = journal(PlacementEngine)
        stored_passes = len(filter_calls)
        filter_calls.clear()
        rereported, _ = journal(_ReReported)
        assert stored == rereported
        assert '"hit": true' in stored and '"kind": "span"' in stored
        # the saving: one host-filtering pass per miss, none per hit
        assert stored_passes == engine.stats.misses
        assert len(filter_calls) == engine.stats.lookups


class TestFallbackReport:
    """An entry solved without provenance builds its report on the
    first hit that asks for one, once, and counts nothing."""

    def _calls(self, engine, co, provenance):
        jobs = [make_job(f"j{i}", num_gpus=2) for i in range(4)]
        props = [None, {}, {}, None] if provenance else [None] * 4
        out = [engine.propose(job, co, provenance=prov)
               for job, prov in zip(jobs, props)]
        return out, props

    def test_first_hit_with_provenance_builds_and_stores_the_report(
        self, filter_calls
    ):
        topo = cluster(12)  # more hosts than the prefilter's k = 8
        alloc = AllocationState(topo)
        gpus = topo.gpus(machine="m0")[:1]
        alloc.allocate("r", gpus)
        co = {"r": (make_job("r", num_gpus=1), frozenset(gpus))}

        engine = PlacementEngine(topo, alloc)
        solutions, props = self._calls(engine, co, provenance=True)
        # one pass for the miss, one for the first report; none after
        assert filter_calls == ["j0", "j1"]
        (entry,) = engine._memo.values()
        assert entry[1] is props[1]["pools"] is props[2]["pools"]
        assert props[1]["memo"] == {"enabled": True, "hit": True}
        # the report a miss with provenance would have built
        cold: dict = {}
        PlacementEngine(topo, alloc).propose(
            make_job("c", num_gpus=2), co, provenance=cold
        )
        assert entry[1] == cold["pools"]
        assert entry[1]["prefilter"]["pruned"] > 0

        # counters match the same calls with no provenance at all
        bare = PlacementEngine(topo, alloc)
        bare_solutions, _ = self._calls(bare, co, provenance=False)
        assert engine.prefilter.stats == bare.prefilter.stats
        assert engine.stats == bare.stats
        assert [_solution_fields(s) for s in solutions] == [
            _solution_fields(s) for s in bare_solutions
        ]
