"""Job communication graphs (paper Section 4.1.1).

Vertices are the job's tasks (one per requested GPU); edges carry a
weight denoting communication volume.  For the data-parallel Caffe
workloads of the paper all GPUs exchange gradients with each other at
the same rate, so the graph is a uniform clique whose weight is derived
from the batch-size class: "for different batch sizes, different
weights are used, ranging from 4 to 1, where 4 represents the smallest
batch size and 1 the largest one" (Section 5.1).

Model-parallel chain/ring generators are provided as well: the paper
motivates topology-awareness as even more critical for those (Section
2), and they exercise non-uniform graphs in the mapping algorithm.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping

from repro.workload.job import BatchClass, CommPattern, Job

#: Batch-class value -> clique edge weight (Section 5.1).  Keyed by
#: value: a value hashes in C, a member in Python.
_BATCH_WEIGHTS: Mapping[int, float] = {
    BatchClass.TINY._value_: 4.0,
    BatchClass.SMALL._value_: 3.0,
    BatchClass.MEDIUM._value_: 2.0,
    BatchClass.BIG._value_: 1.0,
}


def comm_weight(batch_class: BatchClass) -> float:
    """Communication weight for a batch class (4 = tiny ... 1 = big)."""
    return _BATCH_WEIGHTS[batch_class._value_]


class JobGraph:
    """Undirected weighted graph over a job's tasks.

    Tasks are integers ``0..n_tasks-1``.  During mapping, edge weights
    are normalised by the total available bandwidth of the target
    machine (Section 4.1.1); :meth:`normalised` performs that scaling.
    """

    def __init__(self, n_tasks: int, edges: Iterable[tuple[int, int, float]] = ()) -> None:
        if n_tasks < 1:
            raise ValueError("a job graph needs at least one task")
        self.n_tasks = n_tasks
        self._w: dict[tuple[int, int], float] = {}
        self._degrees: list[float] | None = None
        for u, v, w in edges:
            self.add_edge(u, v, w)

    @staticmethod
    def _key(u: int, v: int) -> tuple[int, int]:
        return (u, v) if u < v else (v, u)

    def add_edge(self, u: int, v: int, weight: float) -> None:
        if u == v:
            raise ValueError(f"self-loop on task {u}")
        for t in (u, v):
            if not 0 <= t < self.n_tasks:
                raise ValueError(f"task {t} out of range 0..{self.n_tasks - 1}")
        if weight < 0:
            raise ValueError("edge weight must be non-negative")
        self._w[self._key(u, v)] = float(weight)
        self._degrees = None

    def weight(self, u: int, v: int) -> float:
        if u == v:
            return 0.0
        return self._w.get(self._key(u, v), 0.0)

    def edges(self) -> list[tuple[int, int, float]]:
        return [(u, v, w) for (u, v), w in sorted(self._w.items())]

    def n_edges(self) -> int:
        return len(self._w)

    def tasks(self) -> range:
        return range(self.n_tasks)

    def total_weight(self) -> float:
        return sum(self._w.values())

    def degree(self, task: int) -> float:
        """Sum of edge weights incident to ``task``.

        All degrees are materialised in one pass over the edge dict
        (and invalidated on mutation); per-task accumulation follows
        the same insertion order as the direct scan, so the cached
        floats are identical to it.
        """
        if not 0 <= task < self.n_tasks:
            return 0.0
        degrees = self._degrees
        if degrees is None:
            degrees = [0.0] * self.n_tasks
            for (u, v), w in self._w.items():
                degrees[u] += w
                degrees[v] += w
            self._degrees = degrees
        return degrees[task]

    def weight_to(self, task: int, others: Iterable[int]) -> float:
        """Total edge weight from ``task`` into the set ``others``."""
        others = set(others)
        return sum(self.weight(task, o) for o in others if o != task)

    def normalised(self, total_bandwidth_gbs: float) -> "JobGraph":
        """Scale edge weights by the machine's total bandwidth.

        Produces the 0..1-ish communication levels the mapping stage
        consumes; weights of 0 mean no communication.
        """
        if total_bandwidth_gbs <= 0:
            raise ValueError("total bandwidth must be positive")
        out = JobGraph(self.n_tasks)
        for (u, v), w in self._w.items():
            out._w[(u, v)] = w / total_bandwidth_gbs
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JobGraph):
            return NotImplemented
        return self.n_tasks == other.n_tasks and self._w == other._w

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JobGraph(tasks={self.n_tasks}, edges={len(self._w)})"


def data_parallel_graph(job: Job) -> JobGraph:
    """Uniform all-to-all gradient-exchange graph (Caffe data parallelism)."""
    w = comm_weight(job.batch_class)
    g = JobGraph(job.num_gpus)
    for u, v in itertools.combinations(range(job.num_gpus), 2):
        g.add_edge(u, v, w)
    return g


def model_parallel_chain(n_tasks: int, weight: float = 4.0) -> JobGraph:
    """Layer-pipeline chain: task i talks only to i+1."""
    g = JobGraph(n_tasks)
    for i in range(n_tasks - 1):
        g.add_edge(i, i + 1, weight)
    return g


def model_parallel_ring(n_tasks: int, weight: float = 4.0) -> JobGraph:
    """Ring all-reduce pattern: chain plus a closing edge."""
    g = model_parallel_chain(n_tasks, weight)
    if n_tasks > 2:
        g.add_edge(n_tasks - 1, 0, weight)
    return g


#: Model-parallel traffic moves whole layer activations instead of
#: averaged gradients, so its per-edge weight is scaled up relative to
#: the data-parallel clique of the same batch class (Section 2: "the
#: model-based parallelism is expected to be more communication
#: intensive").
MODEL_PARALLEL_WEIGHT_FACTOR = 1.5


def job_graph_for(job: Job) -> JobGraph:
    """The communication graph implied by a job's declared pattern."""
    if job.comm_pattern is CommPattern.DATA_PARALLEL:
        return data_parallel_graph(job)
    w = comm_weight(job.batch_class) * MODEL_PARALLEL_WEIGHT_FACTOR
    if job.comm_pattern is CommPattern.MODEL_PARALLEL_CHAIN:
        return model_parallel_chain(job.num_gpus, w)
    if job.comm_pattern is CommPattern.MODEL_PARALLEL_RING:
        return model_parallel_ring(job.num_gpus, w)
    raise ValueError(f"unhandled pattern {job.comm_pattern}")  # pragma: no cover
