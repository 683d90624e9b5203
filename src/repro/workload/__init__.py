"""Deep-learning job model: specs, communication graphs, profiles, traces."""

from repro.workload.job import BatchClass, CommPattern, Job, ModelType, batch_class_of
from repro.workload.jobgraph import (
    JobGraph,
    comm_weight,
    data_parallel_graph,
    job_graph_for,
    model_parallel_chain,
    model_parallel_ring,
)
from repro.workload.profiles import JobProfile, ProfileDatabase, default_database
from repro.workload.generator import WorkloadGenerator, GeneratorConfig
from repro._lazy import lazy_exports

__all__ = [
    "BatchClass",
    "CommPattern",
    "GeneratorConfig",
    "Job",
    "JobGraph",
    "JobProfile",
    "ManifestError",
    "ModelType",
    "ProfileDatabase",
    "WorkloadGenerator",
    "batch_class_of",
    "comm_weight",
    "data_parallel_graph",
    "default_database",
    "dump_manifest",
    "dumps_manifest",
    "job_graph_for",
    "load_manifest",
    "loads_manifest",
    "model_parallel_chain",
    "model_parallel_ring",
]

# the manifest codec resolves on first use (PEP 562): it serves the
# service, the CLI and trace files, not the simulation itself
__getattr__ = lazy_exports(__name__, {
    "repro.workload.manifest": (
        "ManifestError", "dump_manifest", "dumps_manifest", "load_manifest",
        "loads_manifest",
    ),
})
