"""Text-table formatting of the figure data (benchmark/report output)."""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.sim.engine import SimulationResult
from repro.workload.job import BatchClass, ModelType


def format_speedup_table(data: Mapping[str, list[float]]) -> str:
    """Figure 4 / Section 3.2 style: rows = models, cols = batch sizes."""
    batches = data["batch_sizes"]
    header = "model      " + "".join(f"{b:>8}" for b in batches)
    lines = [header]
    for key, values in data.items():
        if key == "batch_sizes":
            continue
        lines.append(f"{key:<11}" + "".join(f"{v:>8.3f}" for v in values))
    return "\n".join(lines)


def format_breakdown_table(data: Mapping) -> str:
    """Figure 3 style: compute/comm percentages per configuration."""
    lines = [f"{'model':<11}{'batch':<8}{'strategy':<9}{'comm%':>7}{'comp_s':>9}{'comm_s':>9}"]
    for model in ModelType:
        for batch_class in BatchClass:
            for strategy in ("pack", "spread"):
                row = data[(model.value, batch_class.name.lower(), strategy)]
                lines.append(
                    f"{model.value:<11}{batch_class.name.lower():<8}{strategy:<9}"
                    f"{row['comm_fraction'] * 100:>6.1f}%"
                    f"{row['compute_s']:>9.2f}{row['comm_s']:>9.2f}"
                )
    return "\n".join(lines)


def format_collocation_table(data: Mapping[tuple[str, str], float]) -> str:
    """Figure 6 style: 4x4 slowdown matrix over batch classes."""
    classes = [c.name.lower() for c in BatchClass]
    corner = "job1/job2"
    header = f"{corner:<10}" + "".join(f"{c:>9}" for c in classes)
    lines = [header]
    for first in classes:
        cells = "".join(f"{data[(first, second)]:>9.3f}" for second in classes)
        lines.append(f"{first:<10}{cells}")
    return "\n".join(lines)


def format_scenario_table(results: Sequence[SimulationResult]) -> str:
    """Figures 8-11 summary: one row per scheduler."""
    from repro.sim.metrics import comparison_table

    return comparison_table(results)


def format_timeline(result: SimulationResult) -> str:
    """Figure 8(a)-(d) style placement timeline, textual."""
    lines = [f"[{result.scheduler_name}]"]
    for rec in result.records:
        if rec.placed_at is None:
            lines.append(f"  {rec.job.job_id}: never placed")
            continue
        gpu_ids = ",".join(g.split("gpu")[-1] for g in rec.gpus)
        end = f"{rec.finished_at:7.1f}" if rec.finished_at is not None else "    ..."
        lines.append(
            f"  {rec.job.job_id}: gpus[{gpu_ids}] "
            f"{rec.placed_at:7.1f}s -> {end}s"
            f"  U={rec.utility:.2f} p2p={'Y' if rec.p2p else 'n'}"
        )
    return "\n".join(lines)
