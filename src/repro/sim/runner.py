"""Simulation entry points: observer runs and policy comparisons.

Thin conveniences over :class:`repro.sim.engine.Simulator`:

* :func:`run_with_observers` — run one trace under one scheduler with
  a set of :class:`~repro.sim.hooks.SimObserver` taps attached.
* :func:`run_comparison` — replay the same trace under several
  policies on fresh topologies (the evaluation-section workhorse).

Observers are bound to the run by :meth:`Simulator.start`, the one
bind seam every caller shares; the runner adds only the post-run
:func:`_finalize_observers` hook.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.schedulers.base import Scheduler
from repro.sim.engine import SimulationResult, Simulator
from repro.sim.hooks import SimObserver
from repro.topology.graph import TopologyGraph
from repro.workload.job import Job

DEFAULT_POLICIES = ("BF", "FCFS", "TOPO-AWARE", "TOPO-AWARE-P")

#: the CLI comparison set: the paper's four policies plus the
#: preempting/migrating extension.  Kept separate from
#: :data:`DEFAULT_POLICIES`, which the golden-equivalence suite pins.
COMPARE_POLICIES = DEFAULT_POLICIES + ("TOPO-AWARE-PM",)


def _finalize_observers(
    result: SimulationResult, observers: Sequence[SimObserver]
) -> None:
    """Post-run hook: observers that expose ``finalize_result`` get
    the finished result (the watchdog attaches its alert digest, the
    telemetry observer folds the engine counters left since the last
    round, the decision recorder writes ``run_end``, the snapshot
    publisher marks the run finished)."""
    for obs in observers:
        finalize = getattr(obs, "finalize_result", None)
        if callable(finalize):
            finalize(result)


def run_with_observers(
    topo: TopologyGraph,
    scheduler: Scheduler,
    jobs: Iterable[Job],
    *,
    observers: Sequence[SimObserver] = (),
    **sim_kwargs,
) -> SimulationResult:
    """Run one simulation with observer hooks attached.

    ``sim_kwargs`` are forwarded to :class:`Simulator` (calibration,
    utility params, profiles, failures, a pre-built cluster state).
    """
    sim = Simulator(topo, scheduler, list(jobs), observers=observers, **sim_kwargs)
    result = sim.run()
    _finalize_observers(result, observers)
    return result


def run_comparison(
    topo_factory: Callable[[], TopologyGraph],
    jobs: Sequence[Job],
    scheduler_names: Sequence[str] = DEFAULT_POLICIES,
    *,
    observer_factory: Callable[[str], Sequence[SimObserver]] | None = None,
    **sim_kwargs,
) -> dict[str, SimulationResult]:
    """Run the same trace under several policies on fresh topologies.

    ``topo_factory`` is called once per policy so allocation state and
    caches never leak between runs; each policy likewise gets a fresh
    scheduler instance.  ``observer_factory``, when given, is called
    with each policy name and must return the observers to attach to
    that policy's run.
    """
    from repro.schedulers import make_scheduler

    results: dict[str, SimulationResult] = {}
    for name in scheduler_names:
        topo = topo_factory()
        observers = observer_factory(name) if observer_factory is not None else ()
        sim = Simulator(
            topo,
            make_scheduler(name),
            list(jobs),
            observers=observers,
            **sim_kwargs,
        )
        results[name] = sim.run()
        _finalize_observers(results[name], observers)
    return results
