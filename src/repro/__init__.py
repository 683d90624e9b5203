"""gpu-topo-aware: topology-aware GPU scheduling for learning workloads.

A from-scratch Python reproduction of

    Amaral, Polo, Carrera, Seelam, Steinder.
    "Topology-Aware GPU Scheduling for Learning Workloads in Cloud
    Environments", SC'17.  DOI 10.1145/3126908.3126933

Quickstart::

    from repro import (
        power8_minsky, AllocationState, PlacementEngine, Job, ModelType,
    )

    topo = power8_minsky()
    alloc = AllocationState(topo)
    engine = PlacementEngine(topo, alloc)
    job = Job("train-0", ModelType.ALEXNET, batch_size=1, num_gpus=2,
              min_utility=0.5)
    solution = engine.propose(job)
    print(solution.gpus, solution.utility, solution.p2p)

See DESIGN.md for the architecture and EXPERIMENTS.md for the
paper-vs-measured results of every table and figure.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "AllocationState",
    "BatchClass",
    "BestFitScheduler",
    "Calibration",
    "ClusterState",
    "DEFAULT_CALIBRATION",
    "FCFSScheduler",
    "GeneratorConfig",
    "InterferenceModel",
    "Job",
    "JobGraph",
    "JobProfile",
    "LinkSpec",
    "LinkType",
    "MachineFailure",
    "ModelType",
    "NodeKind",
    "PerformanceModel",
    "Placement",
    "PlacementEngine",
    "PlacementSolution",
    "ProfileDatabase",
    "RandomScheduler",
    "Scheduler",
    "SimObserver",
    "SimulationResult",
    "Simulator",
    "TopoAwareScheduler",
    "TopologyGraph",
    "UtilityParams",
    "WorkloadGenerator",
    "__version__",
    "cluster",
    "default_database",
    "dgx1",
    "drb_map",
    "fm_bipartition",
    "load_manifest",
    "machine",
    "make_scheduler",
    "power8_minsky",
    "power8_pcie_k80",
    "run_comparison",
    "run_with_observers",
]

# names resolve on first use (PEP 562): ``import repro`` alone, or any
# ``import repro.<module>``, does not import every subpackage
__getattr__ = lazy_exports(__name__, {
    "repro.topology": (
        "AllocationState", "LinkSpec", "LinkType", "NodeKind",
        "TopologyGraph", "cluster", "dgx1", "machine", "power8_minsky",
        "power8_pcie_k80",
    ),
    "repro.workload": (
        "BatchClass", "GeneratorConfig", "Job", "JobGraph", "JobProfile",
        "ModelType", "ProfileDatabase", "WorkloadGenerator",
        "default_database", "load_manifest",
    ),
    "repro.perf": (
        "Calibration", "DEFAULT_CALIBRATION", "InterferenceModel",
        "PerformanceModel", "Placement",
    ),
    "repro.core": (
        "PlacementEngine", "PlacementSolution", "UtilityParams", "drb_map",
        "fm_bipartition",
    ),
    "repro.schedulers": (
        "BestFitScheduler", "FCFSScheduler", "RandomScheduler", "Scheduler",
        "TopoAwareScheduler", "make_scheduler",
    ),
    "repro.sim": (
        "ClusterState", "MachineFailure", "SimObserver", "SimulationResult",
        "Simulator", "run_comparison", "run_with_observers",
    ),
})
