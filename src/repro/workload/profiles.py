"""Job profiles (paper Section 4.2).

A :class:`JobProfile` is the scheduler-facing summary the paper builds
from historical runs: solo iteration times under the best (pack) and a
sub-optimal (spread) allocation on the reference machine, the
communication fraction, the average bus bandwidth demand, and the
interference *sensitivity* / *pressure* coefficients feeding Eq. 4.

:class:`ProfileDatabase` holds one profile per (model, batch class).
:func:`default_database` builds it from the default calibration over
the Minsky reference topology -- the synthetic stand-in for the paper's
"95th percentile of the execution time from five executions of each
workload within different scenarios".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.workload.job import BatchClass, Job, ModelType
from repro.workload.jobgraph import comm_weight


@dataclass(frozen=True)
class JobProfile:
    """Per-(model, batch class) performance summary on the reference machine."""

    model: ModelType
    batch_class: BatchClass
    comm_weight: float  # job-graph edge weight (4=tiny .. 1=big)
    solo_iter_pack_s: float  # per-iteration time, 2 GPUs packed
    solo_iter_spread_s: float  # per-iteration time, 2 GPUs spread
    comm_fraction: float  # comm share of iteration time (pack)
    avg_demand_gbs: float  # average bus demand (pack)
    sensitivity: float  # victim coefficient (Eq. 4 inputs)
    pressure: float  # aggressor coefficient

    @property
    def pack_speedup(self) -> float:
        """Pack-vs-spread speedup of this class (Figure 4's metric)."""
        return self.solo_iter_spread_s / self.solo_iter_pack_s

    def solo_time(self, iterations: int, packed: bool = True) -> float:
        per_iter = self.solo_iter_pack_s if packed else self.solo_iter_spread_s
        return iterations * per_iter


class ProfileDatabase:
    """Lookup of :class:`JobProfile` by (model, batch class).

    The table is keyed by the enums' values, which hash in C; a member
    hashes in Python on every lookup.
    """

    def __init__(self, profiles: Mapping[tuple[ModelType, BatchClass], JobProfile]) -> None:
        self._profiles = {
            (model._value_, batch_class._value_): profile
            for (model, batch_class), profile in profiles.items()
        }

    def get(self, model: ModelType, batch_class: BatchClass) -> JobProfile:
        try:
            return self._profiles[(model._value_, batch_class._value_)]
        except KeyError:
            raise KeyError(
                f"no profile for ({model}, {batch_class}); "
                "extend the database or recalibrate"
            ) from None

    def for_job(self, job: Job) -> JobProfile:
        return self.get(job.model, job.batch_class)

    def __iter__(self) -> Iterator[JobProfile]:
        return iter(self._profiles.values())

    def __len__(self) -> int:
        return len(self._profiles)

    @classmethod
    def from_calibration(cls, calibration=None) -> "ProfileDatabase":
        """Build profiles by 'profiling' the reference Minsky machine.

        Runs the performance model for a 2-GPU job of every (model,
        batch class) under the canonical pack and spread placements --
        the synthetic analogue of the paper's profiling experiments.
        """
        # imported here to keep repro.workload importable without repro.perf
        from repro.perf import bandwidth as _bandwidth
        from repro.perf import interference as _interference
        from repro.perf.calibration import DEFAULT_CALIBRATION
        from repro.perf.model import PerformanceModel, Placement
        from repro.topology.builders import power8_minsky

        cal = calibration or DEFAULT_CALIBRATION
        topo = power8_minsky()
        perf = PerformanceModel(topo, cal)
        profiles: dict[tuple[ModelType, BatchClass], JobProfile] = {}
        for model in ModelType:
            for batch_class in BatchClass:
                job = Job(
                    job_id=f"profile-{model}-{batch_class}",
                    model=model,
                    batch_size=batch_class.representative_batch,
                    num_gpus=2,
                )
                pack = perf.placement_gpus(job, Placement.PACK)
                spread = perf.placement_gpus(job, Placement.SPREAD)
                bd_pack = perf.iteration_breakdown(job, pack)
                bd_spread = perf.iteration_breakdown(job, spread)
                profiles[(model, batch_class)] = JobProfile(
                    model=model,
                    batch_class=batch_class,
                    comm_weight=comm_weight(batch_class),
                    solo_iter_pack_s=bd_pack.total_s,
                    solo_iter_spread_s=bd_spread.total_s,
                    comm_fraction=bd_pack.comm_fraction,
                    avg_demand_gbs=_bandwidth.average_demand_gbs(job, perf, pack),
                    sensitivity=_interference.sensitivity(cal, model, batch_class),
                    pressure=_interference.pressure(cal, model, batch_class),
                )
        return cls(profiles)


_DEFAULT: ProfileDatabase | None = None


def default_database() -> ProfileDatabase:
    """Process-wide default profile database (built once, cached)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = ProfileDatabase.from_calibration()
    return _DEFAULT
