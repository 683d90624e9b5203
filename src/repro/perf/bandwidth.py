"""NVLink bandwidth usage model (paper Figure 5, Section 5.1).

The prototype samples ``nvidia-smi nvlink`` transmit counters once per
second and derives a bandwidth time series.  Here the same series is
produced from the performance model: during each 1-second window the
job moves ``comm_volume * iterations_in_window`` gigabytes over its
links, plus a small deterministic ripple that mimics the burstiness of
layer-wise gradient exchange visible in the paper's plot.

Small batches iterate often and saturate the links (~40 GB/s at batch
1 on the Minsky machine); big batches compute for most of each window
and barely reach a few GB/s.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.perf.calibration import Calibration, DEFAULT_CALIBRATION
from repro.perf.model import PerformanceModel
from repro.workload.job import Job


def average_demand_gbs(
    job: Job,
    perf: PerformanceModel,
    gpus: Sequence[str],
) -> float:
    """Average link bandwidth demand of a job on a given allocation."""
    if job.num_gpus == 1:
        return 0.0
    breakdown = perf.iteration_breakdown(job, gpus)
    volume = perf.calibration.model(job.model).comm_volume_gb
    return volume / breakdown.total_s


def peak_demand_gbs(job: Job, perf: PerformanceModel, gpus: Sequence[str]) -> float:
    """Burst bandwidth while gradients are in flight (link-limited)."""
    if job.num_gpus == 1:
        return 0.0
    return perf.worst_pair_bandwidth(list(gpus))


def nvlink_bandwidth_series(
    job: Job,
    perf: PerformanceModel,
    gpus: Sequence[str],
    duration_s: float = 250.0,
    sample_period_s: float = 1.0,
    ripple: float = 0.1,
) -> tuple[np.ndarray, np.ndarray]:
    """Figure-5-style (times, GB/s) series for a solo job.

    The series is zero after the job completes.  ``ripple`` adds the
    deterministic oscillation seen in the measured counters (phase
    depends on the batch size so different series do not overlap).
    """
    if duration_s <= 0 or sample_period_s <= 0:
        raise ValueError("duration and sample period must be positive")
    times = np.arange(0.0, duration_s, sample_period_s)
    gpus = list(gpus)
    avg = average_demand_gbs(job, perf, gpus)
    end = job.iterations * perf.iteration_time(job, gpus)
    cap = peak_demand_gbs(job, perf, gpus)
    series = np.zeros_like(times)
    if avg > 0.0:
        phase = (job.batch_size % 7) * 0.9
        wobble = 1.0 + ripple * np.sin(times / (3.0 + math.log1p(job.batch_size)) + phase)
        series = np.minimum(avg * wobble, cap * 1.1)
        series[times > end] = 0.0
    return times, series


def dram_bandwidth_series(
    job: Job,
    perf: PerformanceModel,
    gpus: Sequence[str],
    duration_s: float = 250.0,
    sample_period_s: float = 1.0,
    cal: Calibration = DEFAULT_CALIBRATION,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulated Perfmon2 DRAM-bandwidth counter series.

    Host memory traffic is the input pipeline plus (when the allocation
    has no P2P) the staged gradient copies; proportional to the NVLink
    series with a placement-dependent factor.
    """
    times, nvlink = nvlink_bandwidth_series(
        job, perf, gpus, duration_s=duration_s, sample_period_s=sample_period_s
    )
    breakdown = perf.iteration_breakdown(job, list(gpus))
    staging = 0.15 if breakdown.p2p else 0.85
    input_pipeline = 2.0 * job.num_gpus  # GB/s of training-sample reads
    dram = nvlink * staging + np.where(nvlink > 0, input_pipeline, 0.0)
    return times, dram
