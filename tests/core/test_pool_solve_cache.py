"""The pool-solve cache replays solves exactly.

``PlacementEngine`` solves each single-machine pool through a cache
keyed on a machine-canonical signature: the job's placement fields,
the machine's shape id and health, the pool's local GPU indices and
the co-runners' local GPU masks and attributes in sorted job-id order.
These tests pin the cache as invisible.  A test-only oracle engine
that solves and builds every pool directly, with no cache, no skipped
repeats and no deferred build, must produce the same records and the
same decision journal (``candidates`` included) on fig11-, pm-,
heterogeneous- and DGX-2-style traces; coarser keys must not; and
equal keys on different machines must mean relabel-equal solves.
Counted tests pin what a proposal pays for: one lookup per distinct
key, and a solution built only for the first pool and each new best.

``score_allocation`` shares the cache under its own key (the scored
job's model and batch size, the machine's shape id and health, the
scored and busy local GPUs and the same co-runner tuple).  An oracle
that scores every allocation directly pins it the same way, eviction
economics included, on the TOPO-AWARE-PM traces.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.bench import first_record_difference
from repro.analysis.scenarios import fragmentation_jobs, scenario2_jobs
from repro.core.constraints import CandidatePool
from repro.core.placement import PlacementEngine, PlacementSolution
from repro.obs.provenance import DecisionRecorder
from repro.schedulers import make_scheduler
from repro.sim.cluster import ClusterState
from repro.sim.engine import Simulator
from repro.topology.allocation import AllocationState
from repro.topology.builders import (
    cluster,
    dgx1,
    dgx2,
    power8_minsky,
    power8_pcie_k80,
)
from repro.workload.generator import GeneratorConfig, WorkloadGenerator
from repro.workload.job import Job, ModelType

from tests.core.counted import CountedEngine, count_calls
from tests.schedulers.test_probe_pruning import _contended_trace


class _Uncached(PlacementEngine):
    """The oracle: every pool goes straight to ``_solve_pool`` and is
    built in full, and the best is picked from the built solutions as
    before the pool-solve cache existed (no cache, no repeat skipping,
    no deferred build)."""

    def _solve(self, job, jobgraph, pools, co_runners, candidates):
        best = None
        for pool in pools:
            solution = self._solve_pool(job, jobgraph, pool, co_runners)
            if candidates is not None:
                candidates.append({
                    "machines": list(pool.machines),
                    "pool_gpus": len(pool.gpus),
                    "utility": None if solution is None else solution.utility,
                    "p2p": None if solution is None else solution.p2p,
                })
            if solution is None:
                continue
            if best is None or solution.utility > best.utility + 1e-12:
                best = solution
            if best.utility >= 1.0 - 1e-12:
                break
        return best


class _NoShape(PlacementEngine):
    """A too-coarse key: machines of different builders collide."""

    def _pool_key(self, job, pool, co_runners):
        key = super()._pool_key(job, pool, co_runners)
        return None if key is None else key[:1] + key[2:]


class _NoModel(PlacementEngine):
    """A too-coarse key: co-runners of different models collide."""

    def _pool_key(self, job, pool, co_runners):
        key = super()._pool_key(job, pool, co_runners)
        if key is None:
            return None
        residents = tuple(
            r if r == "self" else (r[0],) + r[2:] for r in key[4]
        )
        return key[:4] + (residents,)


def _mixed(machine_id: str):
    """Minsky, DGX-1 and PCIe/K80 machines in turn."""
    builders = (power8_minsky, dgx1, power8_pcie_k80)
    return builders[int(machine_id[1:]) % 3](machine_id)


def _generated(seed, n_jobs, rate, gpu_counts, probs, batch_p=0.5):
    cfg = GeneratorConfig(
        arrival_rate_per_min=rate,
        gpu_counts=gpu_counts,
        gpu_count_probs=probs,
        batch_binomial_p=batch_p,
    )
    return WorkloadGenerator(cfg, seed=seed).generate(n_jobs)


#: name -> (topology factory, policy, trace factory).  The mixed trace
#: keeps every job in the tiny batch class, so co-runners differ only
#: by model, size and place, and a key that drops the machine shape or
#: the co-runner model replays wrong solves thousands of times.
TRACES = {
    "fig11": (lambda: cluster(50), "TOPO-AWARE-P",
              lambda: scenario2_jobs(150, 50, seed=3)),
    "pm": (lambda: cluster(10), "TOPO-AWARE-PM",
           lambda: _contended_trace(7, 60, 0.3)),
    "mixed": (lambda: cluster(9, _mixed), "TOPO-AWARE-P",
              lambda: _generated(5, 120, 30.0, (1, 2, 4, 8),
                                 (0.35, 0.35, 0.2, 0.1), batch_p=0.0)),
    "dgx2": (lambda: cluster(4, dgx2), "TOPO-AWARE",
             lambda: _generated(11, 120, 20.0, (1, 2, 4, 8, 16),
                                (0.3, 0.3, 0.2, 0.15, 0.05))),
}


def _run(name: str, engine_cls=PlacementEngine, traces=TRACES):
    make_topo, policy, make_jobs = traces[name]
    topo = make_topo()
    state = ClusterState(topo)
    state.engine = engine_cls(
        topo, state.alloc, state.params, None, state.interference
    )
    recorder = DecisionRecorder(journal=True)
    sim = Simulator(topo, make_scheduler(policy), make_jobs(),
                    cluster=state, observers=[recorder])
    return sim.run(), [json.loads(line) for line in recorder.journal], state.engine


def _same(a, a_journal, b, b_journal) -> bool:
    return (
        first_record_difference(a, b) is None
        and a.makespan == b.makespan
        and a.decision_rounds == b.decision_rounds
        and a_journal == b_journal
    )


@pytest.fixture(scope="module")
def oracle_runs():
    return {name: _run(name, _Uncached) for name in TRACES}


@pytest.mark.parametrize("name", sorted(TRACES))
def test_cached_engine_matches_the_solve_everything_oracle(name, oracle_runs):
    fast, fast_journal, engine = _run(name, CountedEngine)
    slow, slow_journal, _ = oracle_runs[name]
    assert first_record_difference(fast, slow) is None
    assert fast.makespan == slow.makespan
    assert fast.decision_rounds == slow.decision_rounds
    assert fast_journal == slow_journal
    # not vacuous: decisions carry per-pool candidates, proposals met
    # a pool key twice (the repeat copies its candidate entry), and the
    # cache served pools solved in earlier proposals
    assert any(record.get("candidates") for record in fast_journal)
    assert engine.repeats > 0 and engine._pool_solves.hits > 0
    assert engine._pool_solves.lookups == engine.distinct_keys


@pytest.mark.parametrize("coarse", [_NoShape, _NoModel])
def test_a_coarser_key_diverges_on_the_mixed_cluster(coarse, oracle_runs):
    slow, slow_journal, _ = oracle_runs["mixed"]
    try:
        fast, fast_journal, _ = _run("mixed", coarse)
    except (IndexError, ValueError):
        return  # replayed onto a machine without the cached GPUs
    assert not _same(fast, fast_journal, slow, slow_journal)


def test_identical_machines_cost_one_lookup_and_one_build(monkeypatch):
    """A proposal over k identical empty machines looks their one key up
    once and builds one solution; the other machines repeat its
    candidate entry.  A later proposal hits and still builds once."""
    k = 6
    topo = cluster(k)
    engine = CountedEngine(topo, AllocationState(topo), memo_size=0)
    built = count_calls(monkeypatch, PlacementSolution, "__init__")
    solved = count_calls(monkeypatch, PlacementEngine, "_solve_pool")
    for n in (1, 2):
        provenance = {}
        # one GPU of an empty Minsky scores below 1 (Eq. 5), so the
        # scan visits every machine
        solution = engine.propose(
            Job(f"j{n}", ModelType.ALEXNET, 16, 1), provenance=provenance
        )
        assert solution.utility < 1.0 and solution.pool.machines == ("m0",)
        assert engine.pools_scanned == n * k and engine.repeats == n * (k - 1)
        assert engine._pool_solves.lookups == n
        assert engine._pool_solves.hits == n - 1
        assert len(built) == n and len(solved) == 1
        first, *rest = provenance["candidates"]
        assert [c["machines"] for c in provenance["candidates"]] == [
            [m] for m in topo.machines()
        ]
        assert all(
            (c["utility"], c["p2p"], c["pool_gpus"])
            == (first["utility"], first["p2p"], first["pool_gpus"])
            for c in rest
        )


def test_a_hit_builds_a_solution_only_as_the_new_best(monkeypatch):
    """On a warm cache, the scan builds one solution per new best: the
    losing hit on an empty machine and its repeats build nothing."""
    topo = cluster(6)
    alloc = AllocationState(topo)
    alloc.allocate("a", ["m1/gpu0"])
    alloc.allocate("b", ["m3/gpu0", "m3/gpu2"])
    engine = CountedEngine(topo, alloc, memo_size=0)
    engine.propose(Job("warm", ModelType.ALEXNET, 16, 3))
    built = count_calls(monkeypatch, PlacementSolution, "__init__")
    provenance = {}
    solution = engine.propose(
        Job("q", ModelType.ALEXNET, 16, 3), provenance=provenance
    )
    utilities = [c["utility"] for c in provenance["candidates"]]
    # m1 (three free) beats the four empty machines, which share a key
    assert solution.pool.machines == ("m1",)
    assert utilities[0] > utilities[1] == utilities[-1]
    # the warm-up made the first two lookups, both misses
    assert engine._pool_solves.lookups == 4 and engine._pool_solves.hits == 2
    assert len(built) == 1


# ---------------------------------------------------------------------------
# the signature
# ---------------------------------------------------------------------------

def _whole_machine_pool(alloc: AllocationState, machine: str) -> CandidatePool:
    return CandidatePool(
        machines=(machine,), gpus=tuple(alloc.free_gpus(machine=machine))
    )


def _place(alloc, co, job_id, gpus, model=ModelType.ALEXNET, batch=16):
    job = Job(job_id, model, batch, len(gpus), single_node=False)
    alloc.allocate(job_id, gpus)
    co[job_id] = (job, frozenset(gpus))
    return job


def test_machines_of_different_builders_get_different_keys():
    topo = cluster(2, lambda m: (power8_minsky if m == "m0" else power8_pcie_k80)(m))
    alloc = AllocationState(topo)
    engine = PlacementEngine(topo, alloc)
    job = Job("q", ModelType.ALEXNET, 16, 2)
    k0 = engine._pool_key(job, _whole_machine_pool(alloc, "m0"), {})
    k1 = engine._pool_key(job, _whole_machine_pool(alloc, "m1"), {})
    assert k0[3] == k1[3]  # the same free local indices
    assert k0 != k1
    # same-builder machines share a shape
    same = cluster(2)
    same_alloc = AllocationState(same)
    same_engine = PlacementEngine(same, same_alloc)
    assert same_engine._pool_key(
        job, _whole_machine_pool(same_alloc, "m0"), {}
    ) == same_engine._pool_key(job, _whole_machine_pool(same_alloc, "m1"), {})


def test_self_marker_differs_from_a_same_shaped_co_runner():
    topo = cluster(2)
    alloc = AllocationState(topo)
    engine = PlacementEngine(topo, alloc)
    co = {}
    job = _place(alloc, co, "a", ["m0/gpu0"])
    _place(alloc, co, "b", ["m1/gpu0"])  # same local GPU, model, batch
    k0 = engine._pool_key(job, _whole_machine_pool(alloc, "m0"), co)
    k1 = engine._pool_key(job, _whole_machine_pool(alloc, "m1"), co)
    assert k0[4] == ("self",)
    assert k1[4] == ((0b1, ModelType.ALEXNET.value, 16, 1),)
    assert k0 != k1


def test_machine_with_a_spanning_co_runner_gets_no_key():
    topo = cluster(3)
    alloc = AllocationState(topo)
    engine = PlacementEngine(topo, alloc)
    co = {}
    _place(alloc, co, "wide", ["m0/gpu0", "m1/gpu0"])
    job = Job("q", ModelType.GOOGLENET, 16, 1)
    for machine in ("m0", "m1"):
        assert engine._pool_key(job, _whole_machine_pool(alloc, machine), co) is None
    assert engine._pool_key(job, _whole_machine_pool(alloc, "m2"), co) is not None
    spanning = CandidatePool(
        machines=("m1", "m2"),
        gpus=tuple(alloc.free_gpus(machine="m1") + alloc.free_gpus(machine="m2")),
    )
    assert engine._pool_key(job, spanning, co) is None


_layout = st.lists(
    st.tuples(
        st.integers(1, 4),                      # GPUs held
        st.sampled_from(list(ModelType)),
        st.sampled_from((1, 16, 64, 128)),
    ),
    max_size=4,
)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_equal_keys_give_relabel_equal_solves(data):
    """Machines that share a key solve to the same local mapping with
    bit-identical metrics, whatever the job ids that got them there."""
    builder = data.draw(st.sampled_from((power8_minsky, dgx1)))
    topo = cluster(4, builder)
    alloc = AllocationState(topo)
    engine = PlacementEngine(topo, alloc)
    n_local = len(topo.gpus(machine="m0"))
    templates = []
    for _ in range(2):
        layout = data.draw(_layout)
        order = data.draw(st.permutations(range(n_local)))
        ranks = data.draw(st.permutations(range(len(layout))))
        templates.append((layout, order, ranks))
    # m0 and m1 share a template, so equal keys exist
    chosen = [0, 0] + [data.draw(st.integers(0, 1)) for _ in range(2)]
    co = {}
    for m, template in enumerate(chosen):
        layout, order, ranks = templates[template]
        used = 0
        for (held, model, batch), rank in zip(layout, ranks):
            if used + held >= n_local:
                break  # keep a GPU free on every machine
            gpus = [f"m{m}/gpu{i}" for i in sorted(order[used: used + held])]
            used += held
            # ids sort by rank within a machine, not by layout order
            _place(alloc, co, f"r{m}-{rank}", gpus, model, batch)
    job = Job("q", data.draw(st.sampled_from(list(ModelType))),
              data.draw(st.sampled_from((1, 16, 128))),
              data.draw(st.integers(1, alloc.free_count("m0"))))
    jobgraph = engine.job_graph(job)
    solved = {}
    for m in topo.machines():
        pool = _whole_machine_pool(alloc, m)
        key = engine._pool_key(job, pool, co)
        if key is None or len(pool.gpus) < job.num_gpus:
            continue
        solution = engine._solve_pool(job, jobgraph, pool, co)
        index = {g: i for i, g in enumerate(topo.gpus(machine=m))}
        solved.setdefault(key, []).append(None if solution is None else (
            tuple((t, index[g]) for t, g in solution.task_mapping.items()),
            tuple(index[g] for g in solution.gpus),
            solution.metrics,
            solution.p2p,
        ))
    assert any(len(answers) > 1 for answers in solved.values())
    for answers in solved.values():
        assert all(answer == answers[0] for answer in answers[1:])


# ---------------------------------------------------------------------------
# running-job scores
# ---------------------------------------------------------------------------

class _Scored(PlacementEngine):
    """The engine under test, logging every score it returns and
    counting the scores served without an evaluation (cache hits)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.scores = []
        self.evaluations = self.score_hits = 0

    def _evaluate(self, job, gpus, co_runners):
        self.evaluations += 1
        return super()._evaluate(job, gpus, co_runners)

    def score_allocation(self, job, gpus, co_runners=None):
        evaluations = self.evaluations
        solution = super().score_allocation(job, gpus, co_runners)
        self.score_hits += self.evaluations == evaluations
        self.scores.append((solution.job_id, solution.gpus, solution.metrics))
        return solution


class _Unscored(_Scored):
    """The scoring oracle: every allocation is scored directly."""

    def _score_key(self, job, machines, gpus, co_runners):
        return None


class _ScoreNoResidents(_Scored):
    """A too-coarse score key: the co-runners are not named."""

    def _score_key(self, job, machines, gpus, co_runners):
        key = super()._score_key(job, machines, gpus, co_runners)
        return None if key is None else key[:-1]


class _ScoreNoBatch(_Scored):
    """A too-coarse score key: the scored job's batch size is dropped."""

    def _score_key(self, job, machines, gpus, co_runners):
        key = super()._score_key(job, machines, gpus, co_runners)
        return None if key is None else key[:2] + key[3:]


def _with_priority(jobs, every: int):
    """Every ``every``-th job at priority 1, so the preempt pass runs."""
    return [
        replace(job, priority=1) if i % every == every - 1 else job
        for i, job in enumerate(jobs)
    ]


def _mixed_pm_jobs():
    return _with_priority(
        _generated(5, 120, 20.0, (1, 2, 4), (0.4, 0.45, 0.15)), 10
    )


#: TOPO-AWARE-PM runs (the defrag pass scores every running job, the
#: preempt pass every candidate victim) and a greedy baseline, which
#: scores each placement it makes
SCORE_TRACES = {
    "pm": TRACES["pm"],
    "contended": (lambda: cluster(10), "TOPO-AWARE-PM",
                  lambda: _contended_trace(3, 80, 0.1)),
    "mixed": (lambda: cluster(6, _mixed), "TOPO-AWARE-PM", _mixed_pm_jobs),
    "fragmentation": (lambda: cluster(2), "TOPO-AWARE-PM", fragmentation_jobs),
    "mixed-bf": (lambda: cluster(6, _mixed), "BF", _mixed_pm_jobs),
}


@pytest.fixture(scope="module")
def score_oracle_runs():
    return {
        name: _run(name, _Unscored, SCORE_TRACES) for name in SCORE_TRACES
    }


@pytest.mark.parametrize("name", sorted(SCORE_TRACES))
def test_cached_scores_match_the_score_everything_oracle(name, score_oracle_runs):
    fast, fast_journal, engine = _run(name, _Scored, SCORE_TRACES)
    slow, slow_journal, oracle = score_oracle_runs[name]
    assert _same(fast, fast_journal, slow, slow_journal)
    assert engine.scores == oracle.scores
    # not vacuous: scores repeated, and on the PM traces evictions
    # recorded their economics (victim utility, penalty, gain)
    assert engine.score_hits > 0
    if SCORE_TRACES[name][1] == "TOPO-AWARE-PM":
        assert any(record.get("evict") for record in fast_journal)


@pytest.mark.parametrize("coarse", [_ScoreNoResidents, _ScoreNoBatch])
def test_a_coarser_score_key_diverges_on_the_mixed_cluster(
    coarse, score_oracle_runs
):
    slow, slow_journal, oracle = score_oracle_runs["mixed"]
    fast, fast_journal, engine = _run("mixed", coarse, SCORE_TRACES)
    assert (
        not _same(fast, fast_journal, slow, slow_journal)
        or engine.scores != oracle.scores
    )


def _direct(alloc, job, gpus, co):
    """``score_allocation`` without the cache, on the same state."""
    return _Unscored(alloc.topo, alloc).score_allocation(job, gpus, co)


def test_a_spanning_allocation_is_scored_directly():
    topo = cluster(3)
    alloc = AllocationState(topo)
    engine = _Scored(topo, alloc)
    co = {}
    _place(alloc, co, "a", ["m0/gpu1"])
    job = Job("q", ModelType.ALEXNET, 16, 2)
    gpus = ("m0/gpu0", "m1/gpu0")
    assert engine._score_key(job, ("m0", "m1"), gpus, co) is None
    for _ in range(2):
        assert engine.score_allocation(job, gpus, co) == _direct(alloc, job, gpus, co)
    assert not engine._pool_solves and engine.score_hits == 0


def test_a_machine_with_a_spanning_co_runner_is_scored_directly():
    topo = cluster(3)
    alloc = AllocationState(topo)
    engine = PlacementEngine(topo, alloc)
    co = {}
    _place(alloc, co, "wide", ["m0/gpu0", "m1/gpu0"])
    job = Job("q", ModelType.GOOGLENET, 16, 1)
    for gpu in ("m0/gpu1", "m1/gpu1"):
        machine = gpu.split("/")[0]
        assert engine._score_key(job, (machine,), (gpu,), co) is None
        assert engine.score_allocation(job, (gpu,), co) == _direct(
            alloc, job, (gpu,), co
        )
    assert not engine._pool_solves
    assert engine._score_key(job, ("m2",), ("m2/gpu1",), co) is not None


def test_an_empty_view_on_an_occupied_machine_never_meets_a_full_view():
    """Eq. 5 reads the allocation and Eq. 4 the view: ``{}`` on an
    occupied machine scores as a direct evaluation with ``{}``, after a
    full-view score of the same allocation was cached."""
    topo = cluster(2)
    alloc = AllocationState(topo)
    engine = _Scored(topo, alloc)
    co = {}
    _place(alloc, co, "a", ["m0/gpu1", "m0/gpu3"], batch=1)
    _place(alloc, co, "b", ["m1/gpu1"], batch=1)
    job = Job("q", ModelType.ALEXNET, 1, 2)
    gpus = ("m0/gpu0", "m0/gpu2")
    full = engine.score_allocation(job, gpus, co)
    assert full.metrics.interference > 1.0
    for view in ({}, {"b": co["b"]}):
        empty = engine.score_allocation(job, gpus, view)
        assert empty == _direct(alloc, job, gpus, view)
        assert empty.metrics != full.metrics
    # the view without "a" reads on m0 exactly what {} reads, so it
    # replays that entry; the full view still replays its own
    assert engine.score_allocation(job, gpus, co) == full
    assert engine.score_hits == 2


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cached_scores_equal_direct_scores_on_any_state(data):
    """Scores through the cache equal direct scores whatever the
    layout, the view (full, partial or empty) and the scored job —
    including the scored job's own placement — across allocation
    changes that revisit earlier states."""
    builder = data.draw(st.sampled_from((power8_minsky, dgx1)))
    topo = cluster(3, builder)
    alloc = AllocationState(topo)
    engine = _Scored(topo, alloc)
    co = {}
    names = {m: topo.gpus(machine=m) for m in topo.machines()}
    n_local = len(names["m0"])
    for m in topo.machines():
        layout = data.draw(_layout)
        order = data.draw(st.permutations(range(n_local)))
        used = 0
        for k, (held, model, batch) in enumerate(layout):
            if used + held >= n_local:
                break
            gpus = [names[m][i] for i in sorted(order[used: used + held])]
            used += held
            _place(alloc, co, f"{m}-{k}", gpus, model, batch)
    ids = sorted(co)
    for _ in range(12):
        move = data.draw(st.sampled_from(("score", "score", "release")))
        if move == "release" and ids:
            job_id = data.draw(st.sampled_from(ids))
            if job_id in alloc.jobs():
                gpus = alloc.release(job_id)
                if data.draw(st.booleans()):
                    alloc.allocate(job_id, gpus)  # a probe's revert
            continue
        machine = data.draw(st.sampled_from(topo.machines()))
        if ids and data.draw(st.booleans()):
            # a running job on its own placement
            job_id = data.draw(st.sampled_from(ids))
            job, gpus = co[job_id]
        else:
            job = Job("q", data.draw(st.sampled_from(list(ModelType))),
                      data.draw(st.sampled_from((1, 16, 128))), 1)
            free = alloc.free_gpus(machine=machine) or names[machine]
            gpus = data.draw(st.lists(st.sampled_from(free), min_size=1,
                                      max_size=4, unique=True))
        view = data.draw(st.sampled_from(("full", "partial", "empty")))
        if view == "full":
            seen = co
        elif view == "partial":
            seen = {i: co[i] for i in ids[::2]}
        else:
            seen = {}
        for _ in range(2):
            assert engine.score_allocation(job, tuple(gpus), seen) == _direct(
                alloc, job, tuple(gpus), seen
            )
    assert engine.score_hits > 0
