"""Tests for the Kubernetes/Mesos placement exports."""

import pytest

from repro.core.placement import PlacementEngine
from repro.export import to_mesos_task, to_pod_spec, to_pod_specs
from repro.topology.allocation import AllocationState
from repro.topology.builders import cluster

from tests.conftest import make_job


@pytest.fixture
def placed(minsky):
    engine = PlacementEngine(minsky, AllocationState(minsky))
    job = make_job("train-0", num_gpus=2, batch_size=1, min_utility=0.5)
    return minsky, job, engine.propose(job)


class TestPodSpec:
    def test_structure(self, placed):
        topo, job, solution = placed
        pod = to_pod_spec(topo, job, solution)
        assert pod["kind"] == "Pod"
        assert pod["metadata"]["name"] == "train-0"
        assert pod["spec"]["nodeSelector"] == {"kubernetes.io/hostname": "m0"}
        container = pod["spec"]["containers"][0]
        assert container["resources"]["limits"]["nvidia.com/gpu"] == 2

    def test_env_matches_enforcement(self, placed):
        topo, job, solution = placed
        pod = to_pod_spec(topo, job, solution)
        env = {e["name"]: e["value"] for e in pod["spec"]["containers"][0]["env"]}
        assert env["CUDA_DEVICE_ORDER"] == "PCI_BUS_ID"
        assert env["CUDA_VISIBLE_DEVICES"] == "0,1"

    def test_annotations_record_reasoning(self, placed):
        topo, job, solution = placed
        annotations = to_pod_spec(topo, job, solution)["metadata"]["annotations"]
        assert annotations["gpu-topo-aware.scheduling/p2p"] == "true"
        assert float(annotations["gpu-topo-aware.scheduling/utility"]) == pytest.approx(
            solution.utility, abs=1e-4
        )

    def test_mismatched_solution_rejected(self, placed):
        topo, job, solution = placed
        other = make_job("other", num_gpus=2)
        with pytest.raises(ValueError, match="solution is for"):
            to_pod_spec(topo, other, solution)

    def test_multi_machine_placement_rejected(self):
        topo = cluster(2)
        engine = PlacementEngine(topo, AllocationState(topo))
        # force a spanning placement by filling machines partially
        state = engine.alloc
        state.allocate("f0", topo.gpus(machine="m0")[:3])
        state.allocate("f1", topo.gpus(machine="m1")[:3])
        job = make_job("span", num_gpus=2, single_node=False)
        solution = engine.propose(job)
        assert solution.pool.spans_machines
        with pytest.raises(ValueError, match="one node|one pod"):
            to_pod_spec(topo, job, solution)

    def test_batch_export_sorted(self, minsky):
        engine = PlacementEngine(minsky, AllocationState(minsky))
        placements = {}
        for name in ("b-job", "a-job"):
            job = make_job(name, num_gpus=1)
            sol = engine.propose(job)
            engine.enforce(sol)
            placements[name] = (job, sol)
        pods = to_pod_specs(minsky, placements)
        assert [p["metadata"]["name"] for p in pods] == ["a-job", "b-job"]


class TestMesosTask:
    def test_structure(self, placed):
        topo, job, solution = placed
        task = to_mesos_task(topo, job, solution)
        assert task["task_id"] == {"value": "train-0"}
        assert task["agent_hostname"] == "m0"
        assert task["resources"][0]["scalar"]["value"] == 2.0
        assert "CUDA_VISIBLE_DEVICES=0,1" in task["command"]["value"]

    def test_labels_record_gpus(self, placed):
        topo, job, solution = placed
        task = to_mesos_task(topo, job, solution)
        labels = {l["key"]: l["value"] for l in task["labels"]["labels"]}
        assert labels["gpus"] == "m0/gpu0,m0/gpu1"
        assert labels["p2p"] == "true"
