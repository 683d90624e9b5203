"""Per-job measurement records and run results.

These are the simulator's *outputs*: :class:`JobRecord` captures
everything measured about one job across its simulated life and
:class:`SimulationResult` bundles the records of one run.  They are
deliberately dependency-light so observers (:mod:`repro.sim.hooks`),
metrics (:mod:`repro.sim.metrics`) and analysis code can share them
without importing the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.workload.job import Job


@dataclass
class JobRecord:
    """Everything measured about one job across its simulated life."""

    job: Job
    arrival: float
    placed_at: float | None = None
    finished_at: float | None = None
    gpus: tuple[str, ...] = ()
    utility: float | None = None
    p2p: bool | None = None
    solo_exec_time: float | None = None  # placement-determined, no interference
    ideal_exec_time: float = 0.0  # best pack placement on empty cluster
    postponements: int = 0
    unplaceable: bool = False
    restarts: int = 0  # times the job was killed by a machine failure
    #: when the job was cancelled mid-flight (terminal, like finished_at)
    cancelled_at: float | None = None
    preemptions: int = 0  # evictions back to the queue (work checkpointed)
    migrations: int = 0  # live migrations to a better allocation

    @property
    def waiting_time(self) -> float | None:
        if self.placed_at is None:
            return None
        return self.placed_at - self.arrival

    @property
    def exec_time(self) -> float | None:
        if self.finished_at is None or self.placed_at is None:
            return None
        return self.finished_at - self.placed_at

    @property
    def terminal(self) -> bool:
        """Whether the job's simulated life has ended (either way)."""
        return self.finished_at is not None or self.cancelled_at is not None

    @property
    def end_time(self) -> float | None:
        """When the job stopped occupying GPUs (finish or cancel)."""
        if self.finished_at is not None:
            return self.finished_at
        return self.cancelled_at


@dataclass
class SimulationResult:
    """Output of one simulation run."""

    scheduler_name: str
    records: list[JobRecord]
    makespan: float
    decision_time_s: float  # wall-clock spent inside scheduler.schedule
    decision_rounds: int
    #: placement-memo counters (hits/misses/invalidations/hit_rate) as
    #: reported by :class:`repro.core.placement.PlacementStats`; empty
    #: for runs whose engine exposes none.
    placement_stats: dict = field(default_factory=dict)
    #: always empty; kept only because ``perfbench/layers.py`` reads it.
    drb_stats: dict = field(default_factory=dict)
    #: top-k candidate-prefilter counters (hosts considered vs pruned)
    #: as reported by :class:`repro.core.constraints.PrefilterStats`.
    prefilter_stats: dict = field(default_factory=dict)
    #: SLO alerts fired during the run (one dict per firing, as built
    #: by :class:`repro.obs.alerts.Watchdog`); attached by the runner
    #: when a watchdog observer was present, empty otherwise.
    alerts: list = field(default_factory=list)
    _index: dict[str, JobRecord] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def mean_decision_time_s(self) -> float:
        if self.decision_rounds == 0:
            return 0.0
        return self.decision_time_s / self.decision_rounds

    def record_of(self, job_id: str) -> JobRecord:
        """O(1) record lookup backed by a lazily built id index."""
        if self._index is None or len(self._index) != len(self.records):
            self._index = {rec.job.job_id: rec for rec in self.records}
        try:
            return self._index[job_id]
        except KeyError:
            raise KeyError(job_id) from None
