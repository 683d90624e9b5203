"""Kubernetes pod-spec generation from placement decisions.

Produces plain dicts matching the v1 Pod schema: GPU counts via the
``nvidia.com/gpu`` resource limit, machine pinning via
``nodeSelector`` on the kubernetes hostname label, the concrete device
list via ``CUDA_VISIBLE_DEVICES`` (plus ``CUDA_DEVICE_ORDER``, exactly
like the prototype's enforcement layer), and the scheduler's reasoning
recorded as annotations so operators can audit why a pod landed where
it did.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.placement import PlacementSolution
from repro.prototype.enforcement import launch_environment
from repro.topology.graph import TopologyGraph
from repro.workload.job import Job

_ANNOTATION_PREFIX = "gpu-topo-aware.scheduling"


def to_pod_spec(
    topo: TopologyGraph,
    job: Job,
    solution: PlacementSolution,
    image: str = "bvlc/caffe:gpu",
) -> dict:
    """One v1 Pod dict binding the job to its chosen GPUs."""
    if solution.job_id != job.job_id:
        raise ValueError(
            f"solution is for {solution.job_id!r}, not {job.job_id!r}"
        )
    machines = sorted({topo.machine_of(g) for g in solution.gpus})
    if len(machines) != 1:
        raise ValueError(
            "a pod binds to one node; split multi-machine placements "
            "into one pod per machine first"
        )
    env = launch_environment(topo, list(solution.gpus))
    return {
        "apiVersion": "v1",
        "kind": "Pod",
        "metadata": {
            "name": job.job_id,
            "labels": {
                f"{_ANNOTATION_PREFIX}/model": job.model.value,
                f"{_ANNOTATION_PREFIX}/batch-class": str(job.batch_class),
            },
            "annotations": {
                f"{_ANNOTATION_PREFIX}/utility": f"{solution.utility:.4f}",
                f"{_ANNOTATION_PREFIX}/p2p": str(solution.p2p).lower(),
                f"{_ANNOTATION_PREFIX}/gpus": ",".join(solution.gpus),
                f"{_ANNOTATION_PREFIX}/comm-cost": (
                    f"{solution.metrics.comm_cost:.2f}"
                ),
                f"{_ANNOTATION_PREFIX}/interference": (
                    f"{solution.metrics.interference:.4f}"
                ),
            },
        },
        "spec": {
            "restartPolicy": "Never",
            "nodeSelector": {"kubernetes.io/hostname": machines[0]},
            "containers": [
                {
                    "name": "trainer",
                    "image": image,
                    "command": [
                        "caffe",
                        "train",
                        f"--solver=solvers/{job.model.value}_b{job.batch_size}.prototxt",
                        f"--gpu={env['CUDA_VISIBLE_DEVICES']}",
                    ],
                    "env": [
                        {"name": k, "value": v} for k, v in sorted(env.items())
                    ],
                    "resources": {
                        "limits": {"nvidia.com/gpu": job.num_gpus},
                        "requests": {"nvidia.com/gpu": job.num_gpus},
                    },
                }
            ],
        },
    }


def to_pod_specs(
    topo: TopologyGraph,
    placements: Mapping[str, tuple[Job, PlacementSolution]],
) -> list[dict]:
    """Pod specs for a batch of placements, sorted by job id."""
    return [
        to_pod_spec(topo, job, solution)
        for _, (job, solution) in sorted(placements.items())
    ]
