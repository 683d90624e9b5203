"""The prototype main loop (paper Section 5.1 / Appendix A.3).

"After providing the needed configuration files and workload manifests,
to execute the system is only required to run the main file."

:class:`PrototypeSystem` ties everything together: load the system
config, discover (build) the topology, read the job manifest, and run
the configured scheduling algorithm(s).  Execution is delegated to the
simulator clock (the environment has no GPUs), but the prototype and
the simulator share one :class:`~repro.sim.cluster.ClusterState` — the
same allocation, running-job and health bookkeeping — and every
placement flows through :class:`EnforcementObserver`, which emits the
literal launch command line the real system would execute and attaches
a per-job NVLink monitor, so the prototype code path is exercised end
to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.prototype.config import (
    AlgorithmConfig,
    SystemConfig,
    load_algorithm_config,
    load_system_config,
)
from repro.prototype.enforcement import launch_command
from repro.prototype.monitors import NVLinkCounterMonitor
from repro.sim.cluster import ClusterState
from repro.sim.engine import SimulationResult, Simulator
from repro.sim.hooks import BaseObserver
from repro.workload.job import Job
from repro.workload.manifest import load_manifest


class EnforcementObserver(BaseObserver):
    """Turns placements into enforcement commands and monitors, live.

    ``on_place`` renders the ``CUDA_VISIBLE_DEVICES``/``numactl``
    launch line and attaches an NVLink counter monitor; a job killed by
    a machine failure has its command and monitor revoked until it is
    re-placed (cold restart).
    """

    def __init__(self, cluster: ClusterState) -> None:
        self.cluster = cluster
        self.commands: dict[str, str] = {}  # job id -> shell line
        self.monitors: dict[str, NVLinkCounterMonitor] = {}

    def on_place(self, t, job, solution, solo_exec_time, postponements):
        gpus = tuple(sorted(solution.gpus))
        self.commands[job.job_id] = launch_command(self.cluster.topo, job, gpus)
        self.monitors[job.job_id] = NVLinkCounterMonitor(
            self.cluster.perf, job, gpus
        )

    def on_requeue(self, t, job):
        self.commands.pop(job.job_id, None)
        self.monitors.pop(job.job_id, None)


@dataclass
class PrototypeRun:
    """Outcome of one algorithm's run over the manifest."""

    algorithm: AlgorithmConfig
    result: SimulationResult
    commands: dict[str, str] = field(default_factory=dict)  # job id -> shell line
    monitors: dict[str, NVLinkCounterMonitor] = field(default_factory=dict)


class PrototypeSystem:
    """Config-driven runner executing one run per algorithm config."""

    def __init__(
        self,
        system_config: SystemConfig,
        algorithms: Sequence[AlgorithmConfig],
        jobs: Sequence[Job] | None = None,
    ) -> None:
        if not algorithms:
            raise ValueError("at least one algorithm config is required")
        self.system_config = system_config
        self.algorithms = list(algorithms)
        if jobs is None:
            if system_config.manifest_path is None:
                raise ValueError("no jobs given and no manifest configured")
            jobs = load_manifest(system_config.manifest_path)
        self.jobs = list(jobs)

    @classmethod
    def from_config_dir(
        cls, directory: str | Path, jobs: Sequence[Job] | None = None
    ) -> "PrototypeSystem":
        """Load ``sys-config.ini`` + every ``*-config.ini`` in a directory."""
        directory = Path(directory)
        sys_path = directory / "sys-config.ini"
        if not sys_path.exists():
            raise FileNotFoundError(f"{sys_path}: no such file")
        system_config = load_system_config(sys_path)
        algo_paths = sorted(
            p
            for p in directory.glob("*-config.ini")
            if p.name != "sys-config.ini"
        )
        algorithms = [load_algorithm_config(p) for p in algo_paths]
        return cls(system_config, algorithms, jobs)

    def run(self) -> list[PrototypeRun]:
        """Execute every configured algorithm over the same manifest."""
        runs = []
        factory = self.system_config.topology_factory()
        for algo in self.algorithms:
            topo = factory()
            cluster = ClusterState(topo, params=algo.utility_params())
            enforcement = EnforcementObserver(cluster)
            sim = Simulator(
                topo,
                algo.make_scheduler(),
                self.jobs,
                cluster=cluster,
                observers=[enforcement],
            )
            result = sim.run()
            runs.append(
                PrototypeRun(
                    algorithm=algo,
                    result=result,
                    commands=enforcement.commands,
                    monitors=enforcement.monitors,
                )
            )
        return runs
