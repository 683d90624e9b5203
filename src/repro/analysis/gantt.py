"""Textual Gantt charts and utility timelines (Figure 8/9 panels).

The paper's Figure 8(a)-(d) shows, per scheduler, which job occupied
which GPU over time plus a bus-bandwidth strip; Figure 9 replaces the
strip with the mean utility of running jobs.  Two data paths feed the
same renderer:

* :func:`gantt_chart` / :func:`utility_timeline` — post-hoc, from the
  :class:`JobRecord` list of a finished run;
* :class:`GanttObserver` — live, as a
  :class:`~repro.sim.hooks.SimObserver` hook attached to a run
  (``Simulator(..., observers=[...])``).  The observer also sees
  intermediate placements that a machine failure later voids, which
  records alone cannot reconstruct.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.sim.engine import JobRecord, SimulationResult
from repro.sim.hooks import BaseObserver

_SYMBOLS = string.digits + string.ascii_uppercase + string.ascii_lowercase


@dataclass
class OccupancySpan:
    """One contiguous occupancy of a GPU set by one job."""

    job_id: str
    gpus: tuple[str, ...]
    start: float
    end: float | None  # None while still running / never finished


def _render_occupancy(
    title: str,
    job_order: Sequence[str],
    spans: Sequence[OccupancySpan],
    width: int,
    gpus: Sequence[str] | None,
) -> str:
    """Shared Gantt renderer over occupancy spans.

    Each row is a GPU, each column a time bucket; cells carry the
    job's symbol (job0 -> '0', job10 -> 'A', ...), '.' when idle.
    """
    if width < 10:
        raise ValueError("width must be >= 10")
    if not spans:
        return f"[{title}] (nothing was placed)"
    horizon = max(s.end if s.end is not None else s.start for s in spans)
    if horizon <= 0:
        horizon = 1.0
    if gpus is None:
        gpus = sorted({g for s in spans for g in s.gpus})
    symbol = {
        job_id: _SYMBOLS[i % len(_SYMBOLS)] for i, job_id in enumerate(job_order)
    }
    dt = horizon / width
    grid = {g: ["."] * width for g in gpus}
    for span in spans:
        end = span.end if span.end is not None else horizon
        first = int(span.start / dt)
        last = max(first, min(width - 1, int(end / dt) - (1 if end % dt == 0 else 0)))
        for g in span.gpus:
            if g not in grid:
                continue
            for col in range(first, last + 1):
                grid[g][col] = symbol[span.job_id]
    label_width = max(len(g) for g in gpus)
    lines = [f"[{title}]  0s {'-' * (width - 12)} {horizon:.0f}s"]
    for g in gpus:
        lines.append(f"{g:<{label_width}} |{''.join(grid[g])}|")
    legend = "  ".join(f"{symbol[j]}={j}" for j in job_order)
    lines.append(f"legend: {legend}")
    return "\n".join(lines)


def gantt_chart(
    result: SimulationResult,
    width: int = 64,
    gpus: Sequence[str] | None = None,
) -> str:
    """Render per-GPU occupancy over time as a text chart."""
    spans = [
        OccupancySpan(r.job.job_id, r.gpus, r.placed_at, r.end_time)
        for r in result.records
        if r.placed_at is not None
    ]
    job_order = [r.job.job_id for r in result.records]
    return _render_occupancy(result.scheduler_name, job_order, spans, width, gpus)


class GanttObserver(BaseObserver):
    """Collects occupancy spans live from the simulation event stream.

    Unlike :func:`gantt_chart`, which sees only each job's *final*
    placement, this observer records every placement segment — a job
    killed by a machine failure contributes its pre-failure span with
    the failure time as its end, then a new span once re-placed.
    """

    def __init__(self, name: str = "sim") -> None:
        self.name = name
        self.spans: list[OccupancySpan] = []
        self.job_order: list[str] = []
        self._open: dict[str, OccupancySpan] = {}

    def on_arrival(self, t, job):
        if job.job_id not in self.job_order:
            self.job_order.append(job.job_id)

    def on_place(self, t, job, solution, solo_exec_time, postponements):
        span = OccupancySpan(
            job.job_id, tuple(sorted(solution.gpus)), start=t, end=None
        )
        self._open[job.job_id] = span
        self.spans.append(span)

    def on_finish(self, t, job, gpus):
        span = self._open.pop(job.job_id, None)
        if span is not None:
            span.end = t

    def on_failure(self, t, machine, victims):
        for job in victims:
            span = self._open.pop(job.job_id, None)
            if span is not None:
                span.end = t

    def on_evict(self, t, job, gpus, reason):
        # close the bar at eviction time; a preempted/migrated job
        # opens a fresh span on its next on_place
        span = self._open.pop(job.job_id, None)
        if span is not None:
            span.end = t

    def chart(self, width: int = 64, gpus: Sequence[str] | None = None) -> str:
        return _render_occupancy(self.name, self.job_order, self.spans, width, gpus)


def comparison_charts(
    observers: Mapping[str, "GanttObserver"],
    width: int = 64,
    gpus: Sequence[str] | None = None,
) -> str:
    """One Gantt panel per policy (Figure 8's (a)-(d) side by side).

    ``observers`` maps policy name to the :class:`GanttObserver` that
    watched its run — the shape ``repro compare --gantt`` produces.
    """
    panels = [observers[name].chart(width, gpus) for name in observers]
    return "\n\n".join(panels)


def utility_timeline(
    records: Sequence[JobRecord],
    n_samples: int = 100,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean utility of the jobs running at each sampled time (Fig. 9).

    Times with no running job yield NaN so plots show gaps, like the
    paper's panels between job waves.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    intervals = [
        (r.placed_at, r.end_time, r.utility)
        for r in records
        if r.placed_at is not None and r.utility is not None
    ]
    if not intervals:
        return np.array([0.0]), np.array([np.nan])
    horizon = max(end if end is not None else start for start, end, _ in intervals)
    times = np.linspace(0.0, horizon, n_samples)
    means = np.full(n_samples, np.nan)
    for i, t in enumerate(times):
        running = [
            u
            for start, end, u in intervals
            if start <= t and (end is None or t < end)
        ]
        if running:
            means[i] = float(np.mean(running))
    return times, means
