"""TOPO-AWARE-PM skips eviction probes that provably cannot commit.

The preempt and defrag passes rule a victim out before probing it when
the queued job cannot fit even with the victim's GPUs back
(``_could_fit``) or when a perfect placement would still not clear the
gain threshold (``_gain_reachable``).  These tests pin the pruning as
exact: a test-only oracle that probes every victim, as the scheduler
did before the prunes existed, must make the same decisions on
contended traces where both prunes fire.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.analysis.bench import first_record_difference
from repro.core.placement import PlacementEngine
from repro.core.utility import UtilityParams, evaluate_solution, normalized_utility
from repro.obs.provenance import DecisionRecorder
from repro.schedulers.base import SchedulingContext
from repro.schedulers.topo import TopoAwareScheduler
from repro.sim.cluster import ClusterState
from repro.sim.engine import Simulator
from repro.topology.allocation import AllocationState
from repro.topology.builders import cluster
from repro.workload.generator import GeneratorConfig
from repro.workload.job import BatchClass, Job, ModelType
from repro.workload.profiles import default_database

PARAMS = UtilityParams(alpha_cc=0.5, alpha_b=0.3, alpha_d=0.2)
N_JOBS = 60


class _Oracle(TopoAwareScheduler):
    """Probes every victim: both prunes disabled."""

    def _could_fit(self, ctx, job, freed):
        return True

    def _gain_reachable(self, u_max, u_now, penalty, min_gain):
        return True


class _Tallied(TopoAwareScheduler):
    """The pruned scheduler, counting the probes each prune skipped
    per pass."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.skipped = {
            ("capacity", "preempt"): 0,
            ("ceiling", "preempt"): 0,
            ("ceiling", "defrag"): 0,
        }
        self._pass = None

    def _preempt_pass(self, *args):
        self._pass = "preempt"
        return super()._preempt_pass(*args)

    def _defrag_pass(self, *args):
        self._pass = "defrag"
        return super()._defrag_pass(*args)

    def _could_fit(self, ctx, job, freed):
        ok = super()._could_fit(ctx, job, freed)
        self.skipped["capacity", self._pass] += not ok
        return ok

    def _gain_reachable(self, u_max, u_now, penalty, min_gain):
        ok = super()._gain_reachable(u_max, u_now, penalty, min_gain)
        self.skipped["ceiling", self._pass] += not ok
        return ok


def _contended_trace(seed: int, n_jobs: int, high_share: float) -> list[Job]:
    """Jobs of 60-300 s arriving every ~7 s on 10 machines: queues
    form, and a share of priority-1 jobs finds the cluster full (the
    pm-contended mix, with its GPU-count weights)."""
    cfg = GeneratorConfig()
    profiles = default_database()
    rng = random.Random(seed)
    lo, hi = cfg.duration_range_s
    jobs, t = [], 0.0
    for i in range(n_jobs):
        t += 7.0 * rng.uniform(0.5, 1.5)
        n_gpus = rng.choices((1, 2, 4), weights=(40, 45, 15))[0]
        model = rng.choice(list(ModelType))
        batch = BatchClass.from_index(rng.randrange(4))
        solo_iter_s = profiles.get(model, batch).solo_iter_pack_s
        jobs.append(Job(
            f"job{i}",
            model,
            batch.representative_batch,
            n_gpus,
            min_utility=(cfg.min_utility_single_gpu if n_gpus == 1
                         else cfg.min_utility_multi_gpu),
            arrival_time=t,
            iterations=max(1, round(rng.uniform(lo, hi) / solo_iter_s)),
            priority=1 if rng.random() < high_share else 0,
        ))
    return jobs


def _run(scheduler, jobs):
    topo = cluster(10)
    recorder = DecisionRecorder(journal=True)
    sim = Simulator(
        topo,
        scheduler,
        jobs,
        cluster=ClusterState(topo, params=PARAMS),
        observers=[recorder],
    )
    return sim.run(), recorder


def _journal(recorder) -> list[dict]:
    """Decision and eviction records, minus what depends on memo state.

    The pruned run skips probes whose answers later lookups replayed,
    so a proposal can miss where the oracle's hit; a hit records no
    per-pool ``candidates``.  Everything else must match.
    """
    out = []
    for line in recorder.journal:
        record = json.loads(line)
        record.pop("memo", None)
        record.pop("candidates", None)
        out.append(record)
    return out


@pytest.mark.parametrize("min_gain", [0.0, 0.1])
@pytest.mark.parametrize("defrag_interval", [1, 10])
@pytest.mark.parametrize("high_share", [0.1, 0.3])
def test_pruned_passes_match_the_probe_everything_oracle(
    high_share, defrag_interval, min_gain
):
    jobs = _contended_trace(7, N_JOBS, high_share)
    kwargs = dict(
        postpone=True,
        preempt=True,
        defrag_interval=defrag_interval,
        preempt_min_gain=min_gain,
    )
    pruned = _Tallied(**kwargs)
    fast, fast_rec = _run(pruned, jobs)
    slow, slow_rec = _run(_Oracle(**kwargs), jobs)

    assert first_record_difference(fast, slow) is None
    assert fast.makespan == slow.makespan
    assert fast.decision_rounds == slow.decision_rounds
    assert _journal(fast_rec) == _journal(slow_rec)
    # the comparison is not vacuous: evictions happened and both
    # prunes skipped probes the oracle ran
    assert any(d.get("verdict") == "evict" for d in _journal(fast_rec))
    assert all(pruned.skipped.values()), pruned.skipped


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_capacity_prune_is_the_capacity_after_release(data):
    """``_could_fit`` reads, without releasing, exactly the capacity
    host filtering sees once the victim's GPUs are freed; when it says
    no, the probe's proposal is indeed ``None``."""
    topo = cluster(3)
    alloc = AllocationState(topo)
    engine = PlacementEngine(topo, alloc, PARAMS)
    order = data.draw(st.permutations(topo.gpus()))
    co, used = {}, 0
    for k, n in enumerate(data.draw(st.lists(st.integers(1, 4), max_size=6))):
        held = order[used: used + n]
        if len(held) < n:
            break
        used += n
        job = Job(f"r{k}", ModelType.ALEXNET, 16, n, single_node=False)
        alloc.allocate(job.job_id, held)
        co[job.job_id] = (job, frozenset(held))
    assume(co)
    victim = data.draw(st.sampled_from(sorted(co)))
    single = data.draw(st.booleans())
    job = Job("q", ModelType.GOOGLENET, 16,
              data.draw(st.integers(1, 4 if single else 12)),
              single_node=single)
    ctx = SchedulingContext(topo, alloc, engine, co)
    fits = TopoAwareScheduler()._could_fit(ctx, job, co[victim][1])
    alloc.release(victim)
    del co[victim]
    capacity = (
        alloc.max_free_count() if single else alloc.total_free_count()
    )
    assert fits == (capacity >= job.num_gpus)
    if not fits:
        assert engine.propose(job, co) is None


def test_victim_scores_the_same_with_or_without_its_own_entry():
    """The passes score a victim against the full co-runner view: the
    interference model skips the scored job's own entry and the other
    Eq. 3/5 terms never read co-runners."""
    topo = cluster(2)
    alloc = AllocationState(topo)
    engine = PlacementEngine(topo, alloc, PARAMS)
    co = {}
    layout = [
        ("a", ModelType.ALEXNET, 1, ["m0/gpu0", "m0/gpu2"]),
        ("b", ModelType.GOOGLENET, 64, ["m0/gpu1"]),
        ("c", ModelType.CAFFEREF, 16, ["m0/gpu3", "m1/gpu0"]),
        ("d", ModelType.ALEXNET, 128, ["m1/gpu1", "m1/gpu2"]),
    ]
    for job_id, model, batch, gpus in layout:
        job = Job(job_id, model, batch, len(gpus), single_node=False)
        alloc.allocate(job_id, gpus)
        co[job_id] = (job, frozenset(gpus))
    interfered = 0
    for job_id, (job, gpus) in co.items():
        without = {k: v for k, v in co.items() if k != job_id}
        full = engine.score_allocation(job, tuple(sorted(gpus)), co)
        interfered += full.metrics.interference > 1.0
        assert full.metrics == engine.score_allocation(
            job, tuple(sorted(gpus)), without
        ).metrics
    assert interfered  # the co-runners do reach the scores


def _alpha_d_valid(w) -> bool:
    # filter on the weight actually passed: ``w0 + w1`` can round down
    # to 1.0 while ``1.0 - w0 - w1`` is still negative
    return 1.0 - w[0] - w[1] >= 0.0


_weights = st.tuples(
    st.floats(0.0, 1.0), st.floats(0.0, 1.0)
).filter(_alpha_d_valid)
_unit = st.floats(0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(_weights, st.floats(1.01, 4.0), _unit, _unit, _unit)
@example(w=(1.0, 2.2029921882238827e-196), i_max=1.25, x1=0.0, x2=0.0, x3=0.0)
def test_no_normalised_utility_exceeds_the_ceiling(w, i_max, x1, x2, x3):
    # explicit examples bypass the strategy's filter
    assume(_alpha_d_valid(w))
    params = UtilityParams(
        alpha_cc=w[0],
        alpha_b=w[1],
        alpha_d=1.0 - w[0] - w[1],
        interference_max=i_max,
    )
    ceiling = normalized_utility(0.0, 0.0, 0.0, params)
    assert normalized_utility(x1, x2, x3, params) <= ceiling


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_no_scored_allocation_exceeds_the_ceiling(data):
    """Random allocations on a small busy cluster score at or below
    ``normalized_utility(0, 0, 0)`` — the bound the prune relies on."""
    topo = cluster(2)
    alloc = AllocationState(topo)
    gpus = topo.gpus()
    co = {}
    busy = data.draw(st.permutations(gpus))
    n_jobs = data.draw(st.integers(0, 3))
    for k in range(n_jobs):
        held = busy[2 * k: 2 * k + 2]
        job = Job(f"r{k}", ModelType.ALEXNET, 64, 2, single_node=False)
        alloc.allocate(job.job_id, held)
        co[job.job_id] = (job, frozenset(held))
    free = busy[2 * n_jobs:]
    n = data.draw(st.integers(1, len(free)))
    chosen = data.draw(st.permutations(free))[:n]
    model = data.draw(st.sampled_from(list(ModelType)))
    job = Job("x", model, data.draw(st.sampled_from((1, 16, 128))), n,
              single_node=False)
    params = data.draw(st.sampled_from((UtilityParams(), PARAMS)))
    metrics = evaluate_solution(topo, alloc, job, chosen, co, params)
    assert metrics.utility <= normalized_utility(0.0, 0.0, 0.0, params)
