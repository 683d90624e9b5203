"""Simulated hardware counters (paper Section 5.1).

The prototype samples two counter families:

* NVLink transmit counters via ``nvidia-smi nvlink -i $gpu_id``, from
  which per-link bandwidth is derived;
* DRAM bandwidth via the Power8 PMU events accessed through Perfmon2.

Here the counters are backed by the performance model: a monitor is
attached to a running job and integrates the model's bandwidth series,
so ``read()`` returns monotonically increasing byte counts exactly like
the real tools, and ``bandwidth_gbs()`` differentiates them over the
sampling window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.perf.bandwidth import dram_bandwidth_series, nvlink_bandwidth_series
from repro.perf.model import PerformanceModel
from repro.workload.job import Job


@dataclass
class _CounterSeries:
    times: np.ndarray
    gbs: np.ndarray

    def bytes_until(self, t: float) -> float:
        """Integrated traffic (GB) from 0 to ``t``."""
        if t <= 0:
            return 0.0
        dt = float(self.times[1] - self.times[0]) if len(self.times) > 1 else 1.0
        full = int(min(t / dt, len(self.gbs)))
        total = float(np.sum(self.gbs[:full]) * dt)
        if full < len(self.gbs):
            total += float(self.gbs[full]) * (t - full * dt)
        return total


class NVLinkCounterMonitor:
    """Per-job NVLink transmit counter, sampled like ``nvidia-smi nvlink``."""

    def __init__(
        self,
        perf: PerformanceModel,
        job: Job,
        gpus: tuple[str, ...],
        horizon_s: float = 600.0,
    ) -> None:
        self.job = job
        self.gpus = gpus
        times, gbs = nvlink_bandwidth_series(job, perf, list(gpus), duration_s=horizon_s)
        self._series = _CounterSeries(times, gbs)
        self._last_t = 0.0
        self._last_bytes = 0.0

    def read(self, t: float) -> float:
        """Cumulative transmitted gigabytes at simulated time ``t``."""
        if t < self._last_t:
            raise ValueError("counter read moved backwards in time")
        return self._series.bytes_until(t)

    def bandwidth_gbs(self, t: float) -> float:
        """Average bandwidth since the previous read (the tool's output)."""
        now_bytes = self.read(t)
        dt = t - self._last_t
        if dt <= 0:
            return 0.0
        bw = (now_bytes - self._last_bytes) / dt
        self._last_t = t
        self._last_bytes = now_bytes
        return bw


class DRAMBandwidthMonitor:
    """Per-job DRAM bandwidth derived from simulated Perfmon2 counters."""

    def __init__(
        self,
        perf: PerformanceModel,
        job: Job,
        gpus: tuple[str, ...],
        horizon_s: float = 600.0,
    ) -> None:
        times, gbs = dram_bandwidth_series(job, perf, list(gpus), duration_s=horizon_s)
        self._series = _CounterSeries(times, gbs)

    def bandwidth_gbs(self, t: float) -> float:
        """Instantaneous DRAM bandwidth at time ``t`` (GB/s)."""
        if len(self._series.times) < 2:
            return 0.0
        dt = float(self._series.times[1] - self._series.times[0])
        idx = int(t / dt)
        if not 0 <= idx < len(self._series.gbs):
            return 0.0
        return float(self._series.gbs[idx])
