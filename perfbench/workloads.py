"""Workload inputs, made from the seed alone, and the record digest.

Imported by the worker and launcher processes (after ``src`` is on the
path) and by the load generator; nothing here runs on import.
"""

from __future__ import annotations

import hashlib
import random

#: the seed whose record digests are pinned in ``digests.json``
DEFAULT_SEED = 1

#: batch workloads: topology size, policy, jobs per simulation
BATCH = {
    "fig11-batch": {"machines": 1000, "scheduler": "TOPO-AWARE-P", "jobs": 1500},
    "pm-contended": {"machines": 10, "scheduler": "TOPO-AWARE-PM", "jobs": 400},
}

#: the live daemon: cluster size, policy and the open-loop rates (1/s)
SERVE = {
    "machines": 20,
    "scheduler": "TOPO-AWARE",
    "submit_rate": 120.0,
    "state_rate": 10.0,
    "metrics_rate": 10.0,
}

#: pm-contended arrival rate (jobs/minute) on 10 machines: queues
#: form and high-priority arrivals find the cluster full, but the
#: queue does not grow without bound.  At 7/min the queue's growth
#: depends on the trace, and CPU per job varied 3-25 ms between seeds.
PM_RATE_PER_MIN = 6.0
#: pm-contended jobs come in blocks of 40 that all share one mix, the
#: generator's expected one (GPU counts 40/45/15%, Binomial model and
#: batch classes, durations stratified over 60-300 s) with 10% at
#: priority 1; the seed orders each block and jitters the arrival gaps
#: by +-50%.  With 20% at priority 1 about half the working rounds are
#: preemption probes, so the median round fell between two modes and
#: moved by 80% from trace to trace; with 10% it moved by 6%.
PM_BLOCK = {
    "gpus": (1,) * 16 + (2,) * 18 + (4,) * 6,
    "model": (0,) * 10 + (1,) * 20 + (2,) * 10,
    "batch": (0,) * 5 + (1,) * 15 + (2,) * 15 + (3,) * 5,
    "priority": (1,) * 4 + (0,) * 36,
}


def rep_seed(seed: int, rep: int) -> int:
    """Seed of the ``rep``-th simulation of a run: every simulation of
    a run replays a different trace, so a run averages over several."""
    return seed * 1000 + rep


def batch_trace(workload: str, seed: int, n_jobs: int):
    from repro.analysis.scenarios import scenario2_jobs

    if workload == "fig11-batch":
        return scenario2_jobs(n_jobs, BATCH[workload]["machines"], seed=seed)
    return pm_trace(seed, n_jobs)


def pm_trace(seed: int, n_jobs: int):
    """The pm-contended trace: stratified blocks (see ``PM_BLOCK``)."""
    from repro.workload.generator import GeneratorConfig
    from repro.workload.job import BatchClass, Job, ModelType
    from repro.workload.profiles import default_database

    cfg = GeneratorConfig()
    models = (ModelType.ALEXNET, ModelType.CAFFEREF, ModelType.GOOGLENET)
    profiles = default_database()
    rng = random.Random(seed)
    size = len(PM_BLOCK["gpus"])
    lo, hi = cfg.duration_range_s
    gap = 60.0 / PM_RATE_PER_MIN
    jobs, t = [], 0.0
    while len(jobs) < n_jobs:
        block = {k: rng.sample(v, size) for k, v in PM_BLOCK.items()}
        strata = rng.sample(range(size), size)
        for k in range(min(size, n_jobs - len(jobs))):
            t += gap * rng.uniform(0.5, 1.5)
            model = models[block["model"][k]]
            batch = BatchClass.from_index(block["batch"][k])
            duration = lo + (hi - lo) * (strata[k] + rng.random()) / size
            n_gpus = block["gpus"][k]
            jobs.append(Job(
                f"job{len(jobs)}", model, batch.representative_batch, n_gpus,
                min_utility=(cfg.min_utility_single_gpu if n_gpus == 1
                             else cfg.min_utility_multi_gpu),
                arrival_time=t,
                iterations=max(1, round(
                    duration / profiles.get(model, batch).solo_iter_pack_s
                )),
                priority=block["priority"][k],
            ))
    return jobs


def serve_bodies(seed: int, segment: int, n_jobs: int) -> list[dict]:
    """``POST /submit`` bodies for one daemon segment.

    ``arrival_time`` is 0 so the daemon stamps each job with its own
    virtual present ("the job arrives when it arrives").
    """
    from repro.workload.generator import GeneratorConfig, WorkloadGenerator
    from repro.workload.manifest import job_to_dict

    jobs = WorkloadGenerator(GeneratorConfig(), seed=rep_seed(seed, segment))
    bodies = []
    for i, job in enumerate(jobs.generate(n_jobs)):
        doc = job_to_dict(job)
        doc["id"] = f"s{segment}-{i}"
        doc["arrival_time"] = 0.0
        bodies.append(doc)
    return bodies


def records_digest(records, fields) -> str:
    """SHA-256 over every record's job id and ``fields`` values (exact
    ``repr`` of each float, so any changed decision changes it)."""
    h = hashlib.sha256()
    for rec in records:
        row = (rec.job.job_id, *(getattr(rec, name) for name in fields))
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()
