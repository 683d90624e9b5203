"""Trace-driven discrete-event simulation (paper Sections 5.3-5.5).

:class:`Simulator` replays a job trace against a topology under a
scheduling policy.  Execution times come from the calibrated
performance model; co-located jobs slow each other down per the
interference model, with running jobs' progress re-scaled whenever the
allocation changes (the standard progress-conservation DES technique).

The kernel is layered: typed events and the versioned queue live in
:mod:`repro.sim.events`, shared cluster state in
:mod:`repro.sim.cluster`, observer hooks in :mod:`repro.sim.hooks`,
the thin orchestrator in :mod:`repro.sim.engine`, and the
``run_comparison`` / ``run_with_observers`` entry points in
:mod:`repro.sim.runner`.
"""

from repro.sim.cluster import ClusterState, RunningJob
from repro.sim.engine import JobRecord, MachineFailure, SimulationResult, Simulator
from repro.sim.events import (
    Arrival,
    EventQueue,
    Failure,
    Finish,
    Recovery,
)
from repro.sim.hooks import (
    BaseObserver,
    CompositeObserver,
    DecisionAccounting,
    RecordKeeper,
    SimObserver,
)
from repro.sim.metrics import (
    UtilizationObserver,
    cumulative_execution_time,
    mean_utility,
    qos_slowdown,
    slo_violations,
    sorted_slowdowns,
    summarize,
    total_slowdown,
)
from repro._lazy import lazy_exports

__all__ = [
    "Arrival",
    "BaseObserver",
    "ClusterState",
    "CompositeObserver",
    "DecisionAccounting",
    "EventQueue",
    "Failure",
    "Finish",
    "JobRecord",
    "MachineFailure",
    "Recovery",
    "RecordKeeper",
    "RunningJob",
    "SimObserver",
    "SimulationResult",
    "Simulator",
    "UtilizationObserver",
    "cumulative_execution_time",
    "load_trace",
    "mean_utility",
    "qos_slowdown",
    "records_to_rows",
    "run_comparison",
    "run_with_observers",
    "save_trace",
    "slo_violations",
    "sorted_slowdowns",
    "summarize",
    "total_slowdown",
]

# the run entry points and the trace-file codec resolve on first use
# (PEP 562): a program that drives ``Simulator`` itself loads neither
# them nor the manifest codec behind trace files
__getattr__ = lazy_exports(__name__, {
    "repro.sim.runner": ("run_comparison", "run_with_observers"),
    "repro.sim.trace": ("load_trace", "records_to_rows", "save_trace"),
})
