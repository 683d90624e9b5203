"""The whole-topology pack placement is computed once per GPU count.

``PerformanceModel.placement_gpus(job, PACK)`` depends only on the
graph and ``job.num_gpus``, so it is memoized in the graph's caches:
every caller (``ideal_exec_time`` on the model and on ``ClusterState``
included) shares one ``pack_gpus`` run per count, graph mutations drop
the memo, and callers get lists they may mutate freely.
"""

from __future__ import annotations

import pytest

import repro.perf.model as model_module
from repro.perf.model import PerformanceModel, Placement, pack_gpus
from repro.sim.cluster import ClusterState
from repro.topology.builders import (
    cluster,
    dgx1,
    dgx2,
    power8_minsky,
    power8_pcie_k80,
    power9_ac922,
)
from repro.topology.graph import NodeKind
from repro.topology.links import LinkSpec
from repro.workload.job import ModelType

from tests.conftest import make_job


@pytest.fixture
def pack_calls(monkeypatch):
    calls = []

    def counting(topo, n, free=None):
        calls.append((topo, n))
        return pack_gpus(topo, n, free)

    monkeypatch.setattr(model_module, "pack_gpus", counting)
    return calls


def test_one_pack_per_gpu_count_across_callers(pack_calls):
    topo = cluster(3)
    perf = PerformanceModel(topo)
    state = ClusterState(topo)
    for model in ModelType:
        for n in (1, 2, 4, 8):
            job = make_job(f"{model.name}-{n}", model=model, num_gpus=n)
            assert perf.placement_gpus(job, Placement.PACK) == pack_gpus(topo, n)
            perf.ideal_exec_time(job)
            state.ideal_exec_time(job)
    # (the profile database packs on a topology of its own)
    assert sorted(n for t, n in pack_calls if t is topo) == [1, 2, 4, 8]


def test_callers_get_a_fresh_list():
    perf = PerformanceModel(cluster(2))
    job = make_job(num_gpus=4)
    first = perf.placement_gpus(job, Placement.PACK)
    expected = list(first)
    first.reverse()
    first.append("bogus")
    assert perf.placement_gpus(job, Placement.PACK) == expected
    assert perf.placement_gpus(job, Placement.PACK) is not first


def test_oversized_count_raises_on_every_call(pack_calls):
    topo = cluster(2)  # 8 GPUs
    perf = PerformanceModel(topo)
    job = make_job("xl", num_gpus=9)
    for _ in range(3):
        with pytest.raises(ValueError):
            perf.placement_gpus(job, Placement.PACK)
    assert pack_calls == [(topo, 9)] * 3
    assert 9 not in topo.pack_memo
    # the cluster's unplaceable path is unchanged: no ideal time
    assert ClusterState(topo).ideal_exec_time(job) == 0.0


@pytest.mark.parametrize(
    "mutate",
    [
        lambda topo: topo.add_node("net", NodeKind.NETWORK),
        lambda topo: topo.merge(power8_minsky("m1")),
        lambda topo: (
            topo.add_node("net", NodeKind.NETWORK),
            topo.pack_memo.setdefault(1, ("stale",)),
            topo.add_edge("m0", "net", 1.0, LinkSpec.network()),
        ),
    ],
    ids=["add_node", "merge", "add_edge"],
)
def test_graph_mutations_drop_the_memo(mutate):
    topo = power8_minsky("m0")
    perf = PerformanceModel(topo)
    perf.placement_gpus(make_job(num_gpus=1), Placement.PACK)
    assert topo.pack_memo
    mutate(topo)
    assert topo.pack_memo == {}


def test_a_grown_graph_packs_the_new_gpus():
    topo = power8_minsky("m0")
    perf = PerformanceModel(topo)
    job = make_job(num_gpus=8)
    with pytest.raises(ValueError):
        perf.placement_gpus(job, Placement.PACK)
    topo.merge(power8_minsky("m1"))
    gpus = perf.placement_gpus(job, Placement.PACK)
    assert sorted(gpus) == sorted(topo.gpus())


def _mixed(machine_id: str):
    """Minsky, DGX-1, DGX-2, PCIe-K80 and AC922 machines in turn."""
    builders = (power8_minsky, dgx1, dgx2, power8_pcie_k80, power9_ac922)
    return builders[int(machine_id[1:]) % len(builders)](machine_id)


@pytest.mark.parametrize("n_machines", [1, 7])
def test_whole_topology_pack_reads_machine_lists_as_grouping_would(n_machines):
    """Without a free list, ``pack_gpus`` reads each machine's GPU list;
    grouping the whole GPU list, as a free list of every GPU makes it
    do, picks the same GPUs in the same order for every count."""
    topo = cluster(n_machines, _mixed)
    everything = topo.gpus()
    for n in range(1, len(everything) + 1):
        assert pack_gpus(topo, n) == pack_gpus(topo, n, free=everything), n
    with pytest.raises(ValueError):
        pack_gpus(topo, len(everything) + 1)
