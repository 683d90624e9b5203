"""A decision round proposes against the live co-runner view.

Every policy opens one :class:`RoundView` per ``schedule`` call.  It
hands ``ctx.co_runners`` itself to proposals and copies it at most once,
only when a later proposal of the round must see a placement made
earlier in it.  The tests pin the identity of the view each proposal
gets, that the second of two placements on one machine sees the first,
and — against an oracle that copies in every round, as every policy
once did — that the records do not move.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import SCHEDULER_CHOICES
from repro.schedulers import make_scheduler
from repro.schedulers.base import RoundView
from repro.sim.engine import Simulator
from repro.topology.builders import cluster, power8_minsky
from repro.workload.job import Job, ModelType

POLICIES = [make_scheduler(name).name for name in SCHEDULER_CHOICES]


class _Spy:
    """Records the co-runner view every proposal and score is handed,
    the ids it held at the call, and the solution it returned."""

    def __init__(self, sim: Simulator) -> None:
        self.calls: list[tuple[str, object]] = []
        self.held: list[set[str]] = []
        self.solutions: dict[str, object] = {}
        engine = sim.cluster.engine
        propose, score = engine.propose, engine.score_allocation

        def spy_propose(job, co_runners=None, **kwargs):
            self.calls.append((job.job_id, co_runners))
            self.held.append(set(co_runners))
            solution = propose(job, co_runners, **kwargs)
            self.solutions.setdefault(job.job_id, solution)
            return solution

        def spy_score(job, gpus, co_runners=None):
            self.calls.append((job.job_id, co_runners))
            self.held.append(set(co_runners))
            solution = score(job, gpus, co_runners)
            self.solutions.setdefault(job.job_id, solution)
            return solution

        engine.propose = spy_propose
        engine.score_allocation = spy_score


@pytest.fixture
def copies(monkeypatch):
    """Counts the round views that made their private copy."""
    made = []
    private = RoundView.private

    def counting(self):
        if self._copy is None:
            made.append(self)
        return private(self)

    monkeypatch.setattr(RoundView, "private", counting)
    return made


@pytest.mark.parametrize("policy", POLICIES)
def test_single_proposal_rounds_get_the_live_view_and_copy_nothing(
    policy, copies
):
    # "b" arrives while "a" runs, then each finishes into an empty
    # queue: every round proposes one job or none
    jobs = [
        Job("a", ModelType.ALEXNET, 4, 2, arrival_time=0.0, iterations=3000),
        Job("b", ModelType.ALEXNET, 4, 1, arrival_time=5.0, iterations=500),
    ]
    sim = Simulator(power8_minsky(), make_scheduler(policy), jobs)
    spy = _Spy(sim)
    result = sim.run()
    assert all(r.finished_at is not None for r in result.records)
    live = sim.cluster.co_runners()
    assert [job_id for job_id, _ in spy.calls] == ["a", "b"]
    assert all(view is live for _, view in spy.calls)
    assert copies == []


@pytest.mark.parametrize("policy", POLICIES)
def test_second_placement_of_a_round_sees_the_first(policy, copies):
    # on a 4-GPU, two-socket machine "b" must share a socket with "a"
    jobs = [
        Job("a", ModelType.ALEXNET, 4, 1, arrival_time=0.0, iterations=3000),
        Job("b", ModelType.ALEXNET, 4, 3, arrival_time=0.0, iterations=3000),
    ]
    sim = Simulator(power8_minsky(), make_scheduler(policy), jobs)
    spy = _Spy(sim)
    result = sim.run()
    (first_id, first), (second_id, second) = spy.calls[:2]
    assert (first_id, second_id) == ("a", "b")
    assert first is sim.cluster.co_runners()
    assert second is not first and spy.held[1] == {"a"}
    assert len(copies) == 1

    # the second placement's Eq. 4 term counts "a" as its co-runner
    rec = {r.job.job_id: r for r in result.records}
    alloc = sim.cluster.alloc
    model = sim.cluster.engine.interference
    b = rec["b"].job
    gpus = frozenset(rec["b"].gpus)
    with_a = {"a": (rec["a"].job, frozenset(rec["a"].gpus))}
    alloc.allocate("a", rec["a"].gpus)
    try:
        seen = model.eq4_interference(b, gpus, with_a, alloc)
        alone = model.eq4_interference(b, gpus, {}, alloc)
    finally:
        alloc.release("a")
    assert seen > alone
    assert spy.solutions["b"].metrics.interference == seen


def test_pm_probes_pop_victims_from_a_private_copy(copies):
    """The preempt pass pops a victim from the round's own copy: the
    cluster's view is read-only, so popping from it would raise."""
    jobs = [
        Job("low", ModelType.ALEXNET, 4, 4, arrival_time=0.0,
            iterations=30000),
        Job("high", ModelType.ALEXNET, 4, 4, arrival_time=5.0,
            iterations=500, priority=1),
    ]
    sched = make_scheduler("TOPO-AWARE-PM", preempt_min_gain=-1.0)
    result = Simulator(power8_minsky(), sched, jobs).run()
    assert len(copies) >= 1
    assert result.records[0].preemptions == 1
    assert all(r.finished_at is not None for r in result.records)


# ----------------------------------------------------------------------
# oracle: copy the view up front in every round, as every policy did
# ----------------------------------------------------------------------
class _CopyEveryRound(RoundView):
    def __init__(self, live) -> None:
        super().__init__(live)
        self.private()


def _copying(policy: str, **kwargs):
    sched = make_scheduler(policy, **kwargs)
    cls = type(sched)
    sched.__class__ = type(
        f"Copying{cls.__name__}",
        (cls,),
        {"_round_view": lambda self, ctx: _CopyEveryRound(ctx.co_runners)},
    )
    return sched


@st.composite
def bursts(draw):
    """Bursts of simultaneous arrivals; short jobs finish between them."""
    jobs = []
    t = 0.0
    for b in range(draw(st.integers(min_value=1, max_value=4))):
        t += draw(st.sampled_from([0.0, 5.0, 40.0, 200.0]))
        for k in range(draw(st.integers(min_value=1, max_value=5))):
            jobs.append(
                Job(
                    f"b{b}j{k}",
                    draw(st.sampled_from(list(ModelType))),
                    draw(st.sampled_from([1, 4, 32, 128])),
                    draw(st.integers(min_value=1, max_value=4)),
                    min_utility=draw(st.sampled_from([0.0, 0.5, 0.8])),
                    arrival_time=t,
                    iterations=draw(st.integers(min_value=50, max_value=3000)),
                    priority=draw(st.sampled_from([0, 0, 1])),
                )
            )
    return jobs


def _outcome(result):
    return (
        result.makespan,
        result.decision_rounds,
        [(r.job.job_id, r.to_dict()) for r in result.records],
    )


@pytest.mark.parametrize(
    "policy,kwargs",
    [(name, {}) for name in POLICIES]
    + [("TOPO-AWARE-PM", {"defrag_interval": 1, "defrag_min_gain": 0.0})],
)
@settings(max_examples=25, deadline=None)
@given(jobs=bursts())
def test_records_equal_a_copy_every_round(policy, kwargs, jobs):
    live = Simulator(cluster(2), make_scheduler(policy, **kwargs), jobs).run()
    oracle = Simulator(cluster(2), _copying(policy, **kwargs), jobs).run()
    assert _outcome(live) == _outcome(oracle)
