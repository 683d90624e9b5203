"""Synthetic workload generation (paper Section 5.3).

"For generating the workloads, a Poisson distribution with arrival rate
lambda = 10 is used.  To create the job's configuration, we used a
Binomial distribution generating integer values between 0 and 3 to
define the batch size (0=tiny .. 3=big), and also a Binomial
distribution generating integer values between 0 and 2 to determine the
NN type (0=AlexNet, 1=CaffeRef, 2=GoogLeNet)."

The paper leaves the GPU-count mix unspecified beyond "jobs have varied
GPU requirements: some need a single GPU ... others multiple"
(Section 5.2); :class:`GeneratorConfig` exposes it as a categorical
distribution defaulting to mostly 1-2 GPU jobs like Table 1.
Minimum-utility SLOs follow Table 1's convention: 0.3 for single-GPU
jobs, 0.5 for multi-GPU jobs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.workload.job import BatchClass, Job, ModelType

_MODEL_ORDER = (ModelType.ALEXNET, ModelType.CAFFEREF, ModelType.GOOGLENET)


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the synthetic workload generator."""

    arrival_rate_per_min: float = 10.0  # Poisson lambda (jobs/minute)
    batch_binomial_p: float = 0.5  # Binomial(3, p) -> class index 0..3
    model_binomial_p: float = 0.5  # Binomial(2, p) -> model index 0..2
    gpu_counts: tuple[int, ...] = (1, 2, 4)
    gpu_count_probs: tuple[float, ...] = (0.40, 0.45, 0.15)
    #: fixed iteration count per job; None derives iterations from a
    #: target duration instead (the paper's trace-driven jobs all run
    #: for minutes regardless of model/batch, so duration-targeting is
    #: the realistic default -- a fixed 4000 iterations would make a
    #: big-batch GoogLeNet run for hours while AlexNet-tiny takes 100 s)
    iterations: int | None = None
    duration_range_s: tuple[float, float] = (60.0, 300.0)
    min_utility_single_gpu: float = 0.3
    min_utility_multi_gpu: float = 0.5
    #: burstiness > 1 switches to a two-state Markov-modulated process:
    #: burst-phase arrivals come ``burstiness`` times faster than the
    #: overall mean rate, idle-phase arrivals correspondingly slower so
    #: the mean rate is preserved.  1.0 = the paper's plain Poisson.
    burstiness: float = 1.0
    burst_fraction: float = 0.3  # fraction of arrivals landing in bursts

    def __post_init__(self) -> None:
        if not 0.0 < self.arrival_rate_per_min < math.inf:
            raise ValueError("arrival rate must be positive and finite")
        if not 0.0 <= self.batch_binomial_p <= 1.0:
            raise ValueError("batch_binomial_p must be in [0, 1]")
        if not 0.0 <= self.model_binomial_p <= 1.0:
            raise ValueError("model_binomial_p must be in [0, 1]")
        if len(self.gpu_counts) != len(self.gpu_count_probs):
            raise ValueError("gpu_counts and gpu_count_probs lengths differ")
        if abs(sum(self.gpu_count_probs) - 1.0) > 1e-9:
            raise ValueError("gpu_count_probs must sum to 1")
        if any(c < 1 for c in self.gpu_counts):
            raise ValueError("gpu counts must be >= 1")
        lo, hi = self.duration_range_s
        if lo <= 0 or hi < lo:
            raise ValueError("duration_range_s must be 0 < lo <= hi")
        if self.iterations is not None and self.iterations < 1:
            raise ValueError("iterations must be >= 1 when fixed")
        if self.burstiness < 1.0:
            raise ValueError("burstiness must be >= 1.0")
        if not 0.0 < self.burst_fraction < 1.0:
            raise ValueError("burst_fraction must be in (0, 1)")


class WorkloadGenerator:
    """Deterministic (seeded) job-stream generator."""

    def __init__(self, config: GeneratorConfig | None = None, seed: int = 0) -> None:
        self.config = config or GeneratorConfig()
        self._rng = np.random.default_rng(seed)

    def generate(self, n_jobs: int, id_prefix: str = "job") -> list[Job]:
        """Generate ``n_jobs`` jobs with Poisson arrivals, sorted by arrival."""
        if n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        cfg = self.config
        mean_gap_s = 60.0 / cfg.arrival_rate_per_min
        if cfg.burstiness == 1.0:
            gaps = self._rng.exponential(mean_gap_s, size=n_jobs)
        else:
            gaps = self._mmpp_gaps(n_jobs, mean_gap_s)
        arrivals = np.cumsum(gaps)
        batch_idx = self._rng.binomial(3, cfg.batch_binomial_p, size=n_jobs)
        model_idx = self._rng.binomial(2, cfg.model_binomial_p, size=n_jobs)
        gpu_counts = self._rng.choice(
            cfg.gpu_counts, size=n_jobs, p=cfg.gpu_count_probs
        )
        durations = self._rng.uniform(
            cfg.duration_range_s[0], cfg.duration_range_s[1], size=n_jobs
        )
        jobs = []
        for i in range(n_jobs):
            n_gpus = int(gpu_counts[i])
            batch_class = BatchClass.from_index(int(batch_idx[i]))
            model = _MODEL_ORDER[int(model_idx[i])]
            if cfg.iterations is not None:
                iterations = cfg.iterations
            else:
                iterations = self._iterations_for(
                    model, batch_class, float(durations[i])
                )
            jobs.append(
                Job(
                    job_id=f"{id_prefix}{i}",
                    model=model,
                    batch_size=batch_class.representative_batch,
                    num_gpus=n_gpus,
                    min_utility=(
                        cfg.min_utility_single_gpu
                        if n_gpus == 1
                        else cfg.min_utility_multi_gpu
                    ),
                    arrival_time=float(arrivals[i]),
                    iterations=iterations,
                )
            )
        return jobs

    def _mmpp_gaps(self, n_jobs: int, mean_gap_s: float) -> np.ndarray:
        """Two-state Markov-modulated interarrival gaps.

        The burst state arrives ``burstiness`` times faster than the
        base rate, the idle state correspondingly slower so the overall
        mean rate is preserved; the chain dwells in each state for a
        handful of arrivals (switch constant 0.2), producing the
        correlated arrival clumps real cloud traces show.
        """
        cfg = self.config
        f = cfg.burst_fraction  # fraction of *arrivals* in the burst state
        burst_gap = mean_gap_s / cfg.burstiness
        # choose the idle gap so f*burst_gap + (1-f)*idle_gap == mean_gap
        idle_gap = mean_gap_s * (1.0 - f / cfg.burstiness) / (1.0 - f)
        switch = 0.2
        p_idle_to_burst = switch * f
        p_burst_to_idle = switch * (1.0 - f)
        gaps = np.empty(n_jobs)
        in_burst = self._rng.random() < f
        for i in range(n_jobs):
            gaps[i] = self._rng.exponential(burst_gap if in_burst else idle_gap)
            flip = self._rng.random()
            if in_burst and flip < p_burst_to_idle:
                in_burst = False
            elif not in_burst and flip < p_idle_to_burst:
                in_burst = True
        return gaps

    @staticmethod
    def _iterations_for(
        model: ModelType, batch_class: BatchClass, duration_s: float
    ) -> int:
        """Iterations giving roughly ``duration_s`` of packed solo run."""
        from repro.workload.profiles import default_database

        profile = default_database().get(model, batch_class)
        return max(1, round(duration_s / profile.solo_iter_pack_s))
