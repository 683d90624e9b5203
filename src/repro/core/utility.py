"""Objective function and utility (paper Eqs. 1-5).

The scheduler scores a candidate GPU allocation with three components:

* **communication cost** ``t`` (Eq. 3): sum of pairwise shortest-path
  distances between the allocated GPUs;
* **interference** ``I`` (Eq. 4): average slowdown across the new job
  and the running jobs it perturbs.  We express every term as
  ``collocated_time / solo_time >= 1`` so that *minimising* I is
  better and ``I == 1`` means no interference (the paper's Eq. 4 prints
  the inverted ratio but optimises in the same direction; see
  DESIGN.md);
* **fragmentation** ``omega`` (Eq. 5): the free-GPU fraction of the
  sockets the allocation touches *after* placement -- minimising it
  packs jobs into already-used domains and leaves whole sockets free
  for future jobs.

Two utility forms are provided:

* :func:`raw_utility` -- the paper's convex Eq. 2
  ``alpha_cc/t + alpha_b/I + alpha_d/omega`` (unbounded; used to compare
  candidate sub-partitions inside Algorithm 3);
* :func:`normalized_utility` -- the complement form of Eq. 1,
  ``sum_i alpha_i * (1 - x_i_hat)`` with every component normalised to
  [0, 1] against its best/worst case.  This bounded form is what job
  SLOs (``min_utility``) are checked against, matching the paper's
  normalisation "against the corresponding worst case".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.obs import trace as _trace
from repro.topology.allocation import AllocationState
from repro.topology.graph import TopologyGraph
from repro.workload.job import Job

#: Shared SLO tolerance: a placement satisfies ``min_utility`` when its
#: utility is at least ``min_utility - SLO_EPS``.  One constant for the
#: scheduler's acceptance predicate (``TopoAwareScheduler._acceptable``,
#: ``PlacementSolution.satisfies``) and the violation counters
#: (``sim.metrics.slo_violations``, the telemetry observer) — previously
#: the counters used a looser 1e-9, so a placement the scheduler itself
#: judged SLO-failing could slip through uncounted.
SLO_EPS = 1e-12


@dataclass(frozen=True)
class UtilityParams:
    """Weights and normalisation bounds of the objective (Eq. 1).

    The paper's experiments use equal weights (0.33 each).
    ``interference_max`` is the slowdown factor treated as "worst case"
    when normalising Eq. 4's I.

    ``migration_cost_s`` / ``migration_weight`` parameterise the
    preemption/migration extension (TOPO-AWARE-PM): checkpointing and
    restoring a victim costs ``migration_cost_s`` seconds of extra solo
    work, and :func:`migration_penalty` converts that overhead into a
    utility-denominated term so eviction decisions trade it off against
    the Eq. 1 gain they unlock.  Both are inert for the paper's
    original policies (nothing reads them unless a policy evicts).
    """

    alpha_cc: float = 1.0 / 3.0
    alpha_b: float = 1.0 / 3.0
    alpha_d: float = 1.0 / 3.0
    interference_max: float = 1.25
    epsilon: float = 1e-6
    migration_cost_s: float = 30.0
    migration_weight: float = 0.25

    def __post_init__(self) -> None:
        total = self.alpha_cc + self.alpha_b + self.alpha_d
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"alpha weights must sum to 1, got {total}")
        if min(self.alpha_cc, self.alpha_b, self.alpha_d) < 0:
            raise ValueError("alpha weights must be non-negative")
        if self.interference_max <= 1.0:
            raise ValueError("interference_max must exceed 1.0")
        if self.migration_cost_s < 0:
            raise ValueError("migration_cost_s must be >= 0")
        if self.migration_weight < 0:
            raise ValueError("migration_weight must be >= 0")


@dataclass(frozen=True)
class SolutionMetrics:
    """Raw and normalised components for one candidate allocation."""

    comm_cost: float  # Eq. 3 t
    interference: float  # Eq. 4 I (>= 1)
    fragmentation: float  # Eq. 5 omega in [0, 1]
    comm_norm: float  # t normalised to [0, 1]
    interference_norm: float
    fragmentation_norm: float
    utility: float  # normalised utility in [0, 1]

    def objective(self, params: UtilityParams) -> float:
        """Eq. 1's minimisation objective (lower is better)."""
        return (
            params.alpha_cc * self.comm_norm
            + params.alpha_b * self.interference_norm
            + params.alpha_d * self.fragmentation_norm
        )


# ---------------------------------------------------------------------------
# Eq. 3: communication cost
# ---------------------------------------------------------------------------

def communication_cost(topo: TopologyGraph, gpus: Iterable[str]) -> float:
    """Sum of pairwise shortest-path distances (Eq. 3)."""
    return topo.pairwise_distance_sum(list(gpus))


def _pair_distance_bounds(topo: TopologyGraph) -> tuple[float, float]:
    """(min, max) GPU pair distance, assuming homogeneous machines.

    The minimum comes from the densest machine-local pair; the maximum
    is a cross-machine pair when the topology has several machines,
    else the machine diameter.  The machine-local distances come from
    the first machine's shape tables, and the cross-machine one from a
    point-to-point search between the first two machines
    (:meth:`TopologyGraph.point_distance`), so neither walks the fleet.
    """
    machines = topo.machines()
    first = topo.gpus(machine=machines[0])
    if len(first) >= 2:
        local = [
            topo.distance(first[i], first[j])
            for i in range(len(first))
            for j in range(i + 1, len(first))
        ]
        dmin, dmax = min(local), max(local)
    else:
        dmin = dmax = 1.0
    if len(machines) > 1:
        other = topo.gpus(machine=machines[1])
        if other:
            dmax = max(dmax, topo.point_distance(first[0], other[0]))
    return dmin, dmax


def comm_cost_bounds(topo: TopologyGraph, n_gpus: int) -> tuple[float, float]:
    """Best/worst Eq. 3 values for an ``n_gpus`` allocation.

    Memoised on the graph (:attr:`TopologyGraph.comm_bounds_memo`), so
    a mutation of the topology clears it.
    """
    if n_gpus < 2:
        return (0.0, 0.0)
    memo = topo.comm_bounds_memo
    bounds = memo.get(n_gpus)
    if bounds is None:
        pairs = n_gpus * (n_gpus - 1) / 2
        dmin, dmax = _pair_distance_bounds(topo)
        bounds = memo[n_gpus] = (pairs * dmin, pairs * dmax)
    return bounds


def _normalize_comm_cost(topo: TopologyGraph, n_gpus: int, t: float) -> float:
    """Scale an ``n_gpus`` allocation's Eq. 3 value ``t`` to [0, 1]."""
    if n_gpus < 2:
        return 0.0
    best, worst = comm_cost_bounds(topo, n_gpus)
    if worst <= best:
        return 0.0
    return min(1.0, max(0.0, (t - best) / (worst - best)))


def normalized_comm_cost(topo: TopologyGraph, gpus: Iterable[str]) -> float:
    """Eq. 3 value scaled to [0, 1] against the best/worst allocation."""
    gpus = list(gpus)
    return _normalize_comm_cost(topo, len(gpus), communication_cost(topo, gpus))


# ---------------------------------------------------------------------------
# Eq. 5: fragmentation
# ---------------------------------------------------------------------------

def fragmentation_after(
    topo: TopologyGraph, alloc: AllocationState, gpus: Iterable[str]
) -> float:
    """Free-GPU fraction of the touched sockets after placing ``gpus``.

    0 = the placement fills its sockets completely (no fragmentation
    left behind); 1 = the sockets remain entirely free (impossible once
    placed, but the bound anchors the normalisation).
    """
    gpu_set = set(gpus)
    sockets = sorted({topo.socket_of(g) for g in gpu_set})
    if not sockets:
        return 0.0
    total = 0.0
    for s in sockets:
        members = topo.gpus(socket=s)
        free_after = sum(
            1 for g in members if alloc.is_free(g) and g not in gpu_set
        )
        total += free_after / len(members)
    return total / len(sockets)


# ---------------------------------------------------------------------------
# utilities
# ---------------------------------------------------------------------------

def normalize_interference(interference: float, params: UtilityParams) -> float:
    span = params.interference_max - 1.0
    return min(1.0, max(0.0, (interference - 1.0) / span))


def raw_utility(
    comm_cost_value: float,
    interference: float,
    fragmentation: float,
    params: UtilityParams = UtilityParams(),
) -> float:
    """The paper's Eq. 2 convex utility (unbounded, higher is better)."""
    eps = params.epsilon
    return (
        params.alpha_cc / max(comm_cost_value, eps)
        + params.alpha_b / max(interference, eps)
        + params.alpha_d / max(fragmentation, eps)
    )


def normalized_utility(
    comm_norm: float,
    interference_norm: float,
    fragmentation_norm: float,
    params: UtilityParams = UtilityParams(),
) -> float:
    """Bounded utility in [0, 1]: ``sum_i alpha_i * (1 - x_i_hat)``."""
    for name, x in (
        ("comm_norm", comm_norm),
        ("interference_norm", interference_norm),
        ("fragmentation_norm", fragmentation_norm),
    ):
        if not 0.0 <= x <= 1.0 + 1e-9:
            raise ValueError(f"{name} must be in [0, 1], got {x}")
    return (
        params.alpha_cc * (1.0 - comm_norm)
        + params.alpha_b * (1.0 - interference_norm)
        + params.alpha_d * (1.0 - fragmentation_norm)
    )


def migration_penalty(
    remaining_wall_s: float,
    params: UtilityParams = UtilityParams(),
) -> float:
    """Utility-denominated cost of evicting/migrating a running job.

    The checkpoint/restore overhead (``migration_cost_s``) is charged
    relative to how much wall-clock work the victim still has:
    migrating a nearly-finished job pays the full ``migration_weight``
    penalty (the fixed overhead dominates whatever better placement it
    would enjoy), while a job with hours left amortises the overhead to
    almost nothing.  The result lives on the same [0, 1] scale as the
    normalised Eq. 1 utility, so policies can compare
    ``u_new - u_old - penalty`` directly.
    """
    if remaining_wall_s <= 0:
        return params.migration_weight
    ratio = params.migration_cost_s / remaining_wall_s
    return params.migration_weight * min(1.0, ratio)


def migration_term(
    remaining_wall_s: float,
    params: UtilityParams = UtilityParams(),
) -> dict:
    """Provenance view of one migration-cost evaluation.

    Mirrors the per-term shape of :func:`utility_breakdown` so
    ``repro explain`` renders eviction decisions with the same
    value/weight/contribution vocabulary as placement decisions.
    """
    penalty = migration_penalty(remaining_wall_s, params)
    return {
        "cost_s": params.migration_cost_s,
        "remaining_wall_s": remaining_wall_s,
        "weight": params.migration_weight,
        "penalty": penalty,
    }


def utility_breakdown(
    topo: TopologyGraph,
    n_gpus: int,
    metrics: SolutionMetrics,
    params: UtilityParams = UtilityParams(),
    *,
    migration: dict | None = None,
) -> dict:
    """Per-term explanation of one scored allocation (provenance).

    Derives, for each Eq. 1 component, the raw value, its normalised
    form, the [best, worst] bounds the normalisation ran against, the
    alpha weight, and the weighted contribution ``alpha * (1 - x_hat)``
    to the final utility.  Pure function of already-computed metrics —
    the decision recorder calls it *after* the hot path scored the
    solution, so attaching provenance changes no simulation result.

    ``migration`` (optional, a :func:`migration_term` dict) attaches
    the migration-cost term when the breakdown explains an eviction or
    live-migration decision.
    """
    comm_best, comm_worst = comm_cost_bounds(topo, n_gpus)

    def term(value: float, norm: float, bounds: tuple[float, float],
             weight: float) -> dict:
        return {
            "value": value,
            "norm": norm,
            "bounds": [bounds[0], bounds[1]],
            "weight": weight,
            "contribution": weight * (1.0 - norm),
        }

    breakdown = {
        "value": metrics.utility,
        "terms": {
            "comm_cost": term(
                metrics.comm_cost,
                metrics.comm_norm,
                (comm_best, comm_worst),
                params.alpha_cc,
            ),
            "interference": term(
                metrics.interference,
                metrics.interference_norm,
                (1.0, params.interference_max),
                params.alpha_b,
            ),
            "fragmentation": term(
                metrics.fragmentation,
                metrics.fragmentation_norm,
                (0.0, 1.0),
                params.alpha_d,
            ),
        },
    }
    if migration is not None:
        breakdown["terms"]["migration"] = migration
    return breakdown


def evaluate_solution(
    topo: TopologyGraph,
    alloc: AllocationState,
    job: Job,
    gpus: Iterable[str],
    co_runners: Mapping[str, tuple[Job, frozenset[str]]],
    params: UtilityParams = UtilityParams(),
    interference_model=None,
) -> SolutionMetrics:
    """Score a concrete allocation: Eqs. 3-5 plus normalised utility."""
    from repro.perf.interference import InterferenceModel

    gpus = list(gpus)
    model = interference_model or InterferenceModel(topo)
    with _trace.span("utility.evaluate", job_id=job.job_id, gpus=len(gpus)) as sp:
        t = communication_cost(topo, gpus)
        t_norm = _normalize_comm_cost(topo, len(gpus), t)
        interference = model.eq4_interference(job, gpus, co_runners, alloc)
        frag = fragmentation_after(topo, alloc, gpus)
        i_norm = normalize_interference(interference, params)
        utility = normalized_utility(t_norm, i_norm, frag, params)
        sp.set(
            comm_cost=t,
            comm_norm=t_norm,
            interference=interference,
            interference_norm=i_norm,
            fragmentation=frag,
            utility=utility,
        )
    return SolutionMetrics(
        comm_cost=t,
        interference=interference,
        fragmentation=frag,
        comm_norm=t_norm,
        interference_norm=i_norm,
        fragmentation_norm=frag,
        utility=utility,
    )
