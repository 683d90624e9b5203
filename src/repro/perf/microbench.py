"""Artificial-load interference profiling (paper Section 4.2, approach 1).

"The first approach is injecting artificial load, using
micro-benchmarks, onto the shared resources and measuring the
interference, i.e. the impact on run-time of other collocated jobs."

:class:`ArtificialLoad` is that micro-benchmark: a pseudo-job that
occupies GPUs purely to stress the buses at a configurable intensity.
:func:`measure_interference_table` collocates a probe workload with
artificial loads across the machine and records the measured slowdown
per (probe batch class, load intensity) cell -- the empirical analogue
of the calibrated model, usable to (re)build scheduler profiles for a
new machine without any analytic assumptions.

The measurement loop runs the probe through the *simulator* rather
than evaluating formulas, so it exercises exactly the code path a real
profiling campaign would (placement, co-location, slowdown dynamics).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.perf.calibration import Calibration, DEFAULT_CALIBRATION
from repro.schedulers.base import Scheduler
from repro.topology.graph import TopologyGraph
from repro.workload.job import BatchClass, Job, ModelType


@dataclass(frozen=True)
class ArtificialLoad:
    """A bus-stressing micro-benchmark occupying ``num_gpus`` GPUs.

    ``intensity`` in [0, 1] scales how hard it drives the shared links;
    1.0 approximates a tiny-batch AlexNet's pressure.  Internally it is
    expressed as a job whose batch class matches the requested
    intensity, so the whole scheduling/interference machinery treats it
    like any other workload.
    """

    name: str
    intensity: float
    num_gpus: int = 2
    duration_s: float = 1000.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.intensity <= 1.0:
            raise ValueError("intensity must be in [0, 1]")
        if self.num_gpus < 1:
            raise ValueError("num_gpus must be >= 1")

    def as_job(self, arrival_time: float = 0.0) -> Job:
        """The pseudo-job realising this load."""
        # higher intensity -> smaller batch class (more bus traffic)
        if self.intensity >= 0.75:
            batch = BatchClass.TINY
        elif self.intensity >= 0.5:
            batch = BatchClass.SMALL
        elif self.intensity >= 0.25:
            batch = BatchClass.MEDIUM
        else:
            batch = BatchClass.BIG
        from repro.workload.profiles import default_database

        profile = default_database().get(ModelType.ALEXNET, batch)
        iterations = max(1, round(self.duration_s / profile.solo_iter_pack_s))
        return Job(
            job_id=f"load-{self.name}",
            model=ModelType.ALEXNET,
            batch_size=batch.representative_batch,
            num_gpus=self.num_gpus,
            arrival_time=arrival_time,
            iterations=iterations,
            tags=("artificial-load",),
        )


#: the standard load ladder used by the profiling campaign
DEFAULT_LOADS = (
    ArtificialLoad("idle", 0.0),
    ArtificialLoad("light", 0.3),
    ArtificialLoad("medium", 0.6),
    ArtificialLoad("heavy", 1.0),
)


class PinnedScheduler(Scheduler):
    """Places each job on an explicitly pinned GPU set.

    The profiling campaign controls placements exactly (the probe on
    the even GPUs, the load on the odd ones -- the Figure 6 interleave),
    so scheduling policy must not interfere with the measurement.
    """

    name = "PINNED"

    def __init__(self, pins: Mapping[str, tuple[str, ...]]) -> None:
        super().__init__()
        self._pins = dict(pins)

    def schedule(self, ctx) -> list:
        placed = []
        view = self._round_view(ctx)
        for job in list(self.queued_jobs()):
            gpus = self._pins.get(job.job_id)
            if gpus is None:
                raise KeyError(f"no pinned GPUs for {job.job_id!r}")
            if not all(ctx.alloc.is_free(g) for g in gpus):
                continue
            solution = ctx.engine.score_allocation(
                job, tuple(gpus), view.current()
            )
            self._commit(ctx, view, placed, job, solution)
        return placed


def _run_probe(
    topo_factory: Callable[[], TopologyGraph],
    probe: Job,
    load: ArtificialLoad | None,
    calibration: Calibration,
) -> float:
    """Measured probe run time, optionally under an artificial load.

    Uses the paper's interleaved collocation (the Figure 6 setup): the
    load is pinned to the odd GPUs, the probe to the even ones, so both
    share the machine's buses.
    """
    from repro.sim.engine import Simulator

    topo = topo_factory()
    gpus = topo.gpus()
    if len(gpus) < probe.num_gpus * 2:
        raise ValueError("profiling machine too small for the interleave")
    pins = {probe.job_id: tuple(gpus[0 : 2 * probe.num_gpus : 2])}
    jobs = [probe]
    if load is not None and load.intensity > 0.0:
        load_job = load.as_job(arrival_time=0.0)
        pins[load_job.job_id] = tuple(gpus[1 : 2 * load_job.num_gpus : 2])
        jobs = [load_job, probe]
    sim = Simulator(
        topo, PinnedScheduler(pins), jobs, calibration=calibration
    )
    result = sim.run()
    rec = result.record_of(probe.job_id)
    if rec.exec_time is None:
        raise RuntimeError(f"probe {probe.job_id} did not finish")
    return rec.exec_time


def measure_interference_table(
    topo_factory: Callable[[], TopologyGraph],
    probe_batches: Mapping[str, int] | None = None,
    loads: tuple[ArtificialLoad, ...] = DEFAULT_LOADS,
    iterations: int = 200,
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> dict[tuple[str, str], float]:
    """Empirical slowdown table: (probe class, load name) -> slowdown.

    For every probe batch class, runs the probe solo and under each
    artificial load, and records ``collocated/solo - 1``.
    """
    probe_batches = probe_batches or {
        bc.name.lower(): bc.representative_batch for bc in BatchClass
    }
    table: dict[tuple[str, str], float] = {}
    for probe_name, batch in probe_batches.items():
        probe = Job(
            job_id=f"probe-{probe_name}",
            model=ModelType.ALEXNET,
            batch_size=batch,
            num_gpus=2,
            iterations=iterations,
        )
        solo = _run_probe(topo_factory, probe, None, calibration)
        for load in loads:
            collocated = _run_probe(topo_factory, probe, load, calibration)
            table[(probe_name, load.name)] = max(0.0, collocated / solo - 1.0)
    return table


def table_to_text(table: Mapping[tuple[str, str], float]) -> str:
    """Format the measured table like Figure 6."""
    probes = sorted({p for p, _ in table})
    loads = sorted({l for _, l in table})
    header = f"{'probe/load':<12}" + "".join(f"{l:>9}" for l in loads)
    lines = [header]
    for p in probes:
        lines.append(
            f"{p:<12}" + "".join(f"{table[(p, l)]:>9.3f}" for l in loads)
        )
    return "\n".join(lines)
