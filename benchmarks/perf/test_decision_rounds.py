"""Decision-round gates at the paper's evaluation scales (§5.5.3).

Three gates, at the bounds CI has held since the fast paths landed:

* **bit-identity** — at each scale the production TOPO-AWARE run
  matches, record for record with ``==``, the run with the placement
  memo off (``memo_size=0``), the run on the exhaustive host scan
  (:class:`ExhaustiveHostEngine`), the run with the decision recorder
  attached and the run on the same fleet without the shape ids
  :func:`cluster` enters at build time (every machine's shape then
  described lazily);
* **speedup floor** — at Fig. 11 scale the exhaustive scan's best
  mean round is at least 2x the prefilter's (about 12x on a 2-vCPU
  host). The pairs are interleaved, so load drift hits both sides and
  the ratio holds on noisy runners where absolute times do not;
* **order-of-magnitude ceiling** — each policy's best-of-3 mean round
  stays within 10x of its committed baseline.

One gate counts instead of timing, so it holds on any runner: at Fig.
11 scale a proposal looks each distinct pool key up once, and
``PlacementSolution`` and ``CandidatePool`` constructions stay under
:data:`MAX_BUILDS_PER_POOL` of the pools scanned (both were at least
one per pool before repeats were skipped, losing hits left unbuilt and
machine pools reused).

These gates catch a lost fast path or an order-of-magnitude
regression. Speed claims are perfbench readings (``perfbench/run.py``).

``test_memo_hit_path_speedup`` microbenches the placement-memo hit
path directly (full simulations rarely hit the memo — every enforced
placement bumps the allocation epoch — so the memo's own speedup is
measured where it applies: repeated proposals against a static pool).
"""

from __future__ import annotations

import functools
import time

import pytest

from repro.analysis.bench import first_record_difference
from repro.analysis.scenarios import scenario1_jobs, scenario2_jobs
from repro.core.constraints import CandidatePool
from repro.core.placement import PlacementEngine, PlacementSolution
from repro.obs.provenance import DecisionRecorder
from repro.schedulers import make_scheduler
from repro.sim.cluster import ClusterState
from repro.sim.engine import Simulator
from repro.sim.records import SimulationResult
from repro.topology.allocation import AllocationState
from repro.topology.builders import cluster
from repro.workload.job import Job, ModelType

from tests.core.counted import CountedEngine, count_calls
from tests.core.exhaustive import exhaustive_cluster

#: scale -> (topology, workload): Fig. 10's 100 scenario-1 jobs on 5
#: machines, and 300 scenario-2 jobs on the paper's 1000-machine
#: Fig. 11 cluster
SCALES = {
    "fig10": (lambda: cluster(5), lambda: scenario1_jobs(100, seed=42)),
    "fig11": (lambda: cluster(1000), lambda: scenario2_jobs(300, 1000, seed=7)),
}

#: best-of-3 ``mean_decision_time_s`` of each gated policy, measured at
#: commit 95be8c9 on x86_64 under Python 3.11.7
BASELINE_ROUND_S = {
    "fig10": {
        "FCFS": 2.492846800123516e-05,
        "TOPO-AWARE": 8.473367089431782e-05,
    },
    "fig11": {
        "FCFS": 5.6938140500066384e-05,
        "BF": 8.068870153236888e-05,
        "TOPO-AWARE": 0.00012114163257656249,
        "TOPO-AWARE-P": 0.0001333322890644536,
    },
}
CEILING = 10.0
MIN_SPEEDUP = 2.0
RUNS = 3
#: ceiling on solutions and on candidate pools built per pool scanned
#: at Fig. 11 scale (0.22 and 0.20 on the 300-job trace)
MAX_BUILDS_PER_POOL = 0.35


def _run(
    scale: str, policy: str, *, exhaustive: bool = False,
    memo_size: int | None = None, observers=(), lazy_shapes: bool = False,
) -> SimulationResult:
    make_topo, make_jobs = SCALES[scale]
    topo = make_topo()
    if lazy_shapes:
        topo._caches.shape_ids.clear()
    state = exhaustive_cluster(topo) if exhaustive else ClusterState(topo)
    if memo_size is not None:
        state.engine.memo_size = memo_size
    return Simulator(
        topo, make_scheduler(policy), make_jobs(), cluster=state,
        observers=observers,
    ).run()


@functools.cache
def _timed(scale: str) -> dict[str, list[SimulationResult]]:
    """``RUNS`` runs of each gated policy at ``scale``, plus as many
    TOPO-AWARE runs on the exhaustive scan (under ``"exhaustive"``),
    interleaved with the prefiltered ones."""
    runs = {"TOPO-AWARE": [], "exhaustive": []}
    for _ in range(RUNS):
        runs["TOPO-AWARE"].append(_run(scale, "TOPO-AWARE"))
        runs["exhaustive"].append(_run(scale, "TOPO-AWARE", exhaustive=True))
    for policy in BASELINE_ROUND_S[scale]:
        if policy not in runs:
            runs[policy] = [_run(scale, policy) for _ in range(RUNS)]
    return runs


def _best(results: list[SimulationResult]) -> float:
    return min(result.mean_decision_time_s for result in results)


@pytest.mark.parametrize("scale", sorted(SCALES))
def test_fast_paths_and_recorder_change_no_decision(scale):
    timed = _timed(scale)
    recorder = DecisionRecorder(journal=True)
    references = {
        "memo_size=0": _run(scale, "TOPO-AWARE", memo_size=0),
        "exhaustive": timed["exhaustive"][0],
        "recorder": _run(scale, "TOPO-AWARE", observers=[recorder]),
        "lazy shape ids": _run(scale, "TOPO-AWARE", lazy_shapes=True),
    }
    production = timed["TOPO-AWARE"][0]
    for label, reference in references.items():
        assert first_record_difference(production, reference) is None, label
    assert recorder.counts()["recorded"] > 0
    assert recorder.counts()["dropped"] == 0


@pytest.mark.parametrize("scale", sorted(SCALES))
def test_mean_round_within_an_order_of_magnitude(scale, write_result):
    timed = _timed(scale)
    lines, over = [], []
    for policy, baseline in BASELINE_ROUND_S[scale].items():
        best = _best(timed[policy])
        lines.append(
            f"{policy:<14}{best * 1e3:8.3f} ms  ceiling "
            f"{CEILING * baseline * 1e3:.3f} ms"
        )
        if best > CEILING * baseline:
            over.append(policy)
    write_result(f"perf_{scale}_decision_rounds", "\n".join(lines))
    assert not over, "\n".join(lines)


def test_prefilter_speedup_floor(write_result):
    timed = _timed("fig11")
    fast, off = _best(timed["TOPO-AWARE"]), _best(timed["exhaustive"])
    write_result(
        "perf_fig11_prefilter_speedup",
        f"TOPO-AWARE: {fast * 1e3:.3f} ms prefilter vs {off * 1e3:.3f} ms "
        f"exhaustive -> {off / fast:.2f}x (floor {MIN_SPEEDUP:.0f}x)",
    )
    assert off >= MIN_SPEEDUP * fast


def test_proposals_pay_for_new_pools_only(monkeypatch, write_result):
    """Counted at Fig. 11 scale: one pool-cache lookup per distinct key
    per proposal, and few solutions and pools built per pool scanned.
    Counting wrappers change no decision."""
    reference = _timed("fig11")["TOPO-AWARE"][0]
    built = {
        cls: count_calls(monkeypatch, cls, "__init__")
        for cls in (PlacementSolution, CandidatePool)
    }
    make_topo, make_jobs = SCALES["fig11"]
    topo = make_topo()
    state = ClusterState(topo)
    engine = state.engine = CountedEngine(
        topo, state.alloc, state.params, state.engine.profiles,
        state.interference,
    )
    result = Simulator(
        topo, make_scheduler("TOPO-AWARE"), make_jobs(), cluster=state
    ).run()
    assert first_record_difference(result, reference) is None
    scanned = engine.pools_scanned
    write_result(
        "perf_fig11_pool_counts",
        f"pools scanned {scanned}, distinct keys {engine.distinct_keys}, "
        f"repeats {engine.repeats}, lookups {engine._pool_solves.lookups}; "
        f"built {len(built[PlacementSolution])} solutions, "
        f"{len(built[CandidatePool])} pools",
    )
    assert engine.repeats > 0
    assert engine._pool_solves.lookups == engine.distinct_keys
    for cls, calls in built.items():
        assert len(calls) <= MAX_BUILDS_PER_POOL * scanned, (cls.__name__, len(calls))


def test_memo_hit_path_speedup(write_result):
    """Repeated proposals against a static pool must hit and be faster.

    The threshold is deliberately conservative (2x) — the cold path
    runs DRB over every candidate pool of a 20-machine cluster, the
    hit path is a dict lookup plus one dataclass copy.
    """
    topo = cluster(20)
    engine = PlacementEngine(topo, AllocationState(topo))
    job = Job("warmup", ModelType.ALEXNET, 1, 4, min_utility=0.0)

    t0 = time.perf_counter()
    first = engine.propose(job)
    cold_s = time.perf_counter() - t0
    assert first is not None and engine.stats.misses == 1

    n = 200
    t0 = time.perf_counter()
    for i in range(n):
        assert engine.propose(
            Job(f"j{i}", ModelType.ALEXNET, 1, 4, min_utility=0.0)
        ) is not None
    hit_s = (time.perf_counter() - t0) / n
    assert engine.stats.hits == n
    assert hit_s * 2 < cold_s, (hit_s, cold_s)
    write_result(
        "perf_memo_hit_path",
        f"cold propose: {cold_s * 1e3:.3f}ms  "
        f"memo hit: {hit_s * 1e6:.1f}us  "
        f"speedup: {cold_s / hit_s:.0f}x",
    )
