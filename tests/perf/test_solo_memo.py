"""``PerformanceModel.iteration_breakdown`` memoises single-machine
allocations by (job fields, shape id, machine-relative GPU names in
task order); a memoised answer must be bit-equal to a fresh model's on
a fresh graph, and models that differ never share one."""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro.perf.calibration import DEFAULT_CALIBRATION, MachineKind
from repro.perf.model import PerformanceModel
from repro.topology.builders import cluster, dgx1, dgx2, power8_minsky, power8_pcie_k80
from repro.topology.links import LinkSpec
from repro.workload.job import CommPattern

from tests.conftest import make_job

#: builder -> the largest allocation tried in every task order (all
#: of a 4-GPU machine; fewer on the bigger ones, whose every order
#: would be 10^5 and more), plus the whole machine in three orders
BUILDERS = {power8_minsky: 4, power8_pcie_k80: 4, dgx1: 3, dgx2: 2}


def allocations(gpus, largest):
    for k in range(1, largest + 1):
        yield from itertools.permutations(gpus, k)
    interleaved = gpus[::2] + gpus[1::2]
    yield from (tuple(gpus), tuple(reversed(gpus)), tuple(interleaved))


@pytest.mark.parametrize("builder", BUILDERS, ids=lambda b: b.__name__)
def test_memo_is_bit_equal_to_a_fresh_model(builder, monkeypatch):
    topo = cluster(2, builder)
    perf = PerformanceModel(topo)
    computed = []
    real = perf._breakdown
    monkeypatch.setattr(
        perf, "_breakdown", lambda job, gpus: (computed.append(1), real(job, gpus))[1]
    )
    for m in topo.machines():
        first = len(computed)
        for alloc in allocations(topo.gpus(machine=m), BUILDERS[builder]):
            for pattern in CommPattern:
                job = make_job(num_gpus=len(alloc), comm_pattern=pattern)
                got = perf.iteration_breakdown(job, alloc)
                fresh = PerformanceModel(builder(m)).iteration_breakdown(job, alloc)
                assert got == fresh
                assert (got.compute_s, got.comm_s) == (fresh.compute_s, fresh.comm_s)
        if m != "m0":
            assert len(computed) == first  # every answer came from m0's


def test_models_that_differ_never_share_an_entry():
    topo = cluster(2)
    cross_socket = ["m1/gpu0", "m1/gpu2"]
    job = make_job(num_gpus=2)
    penalised = dataclasses.replace(DEFAULT_CALIBRATION, no_p2p_penalty=0.25)
    models = {
        "default": lambda t: PerformanceModel(t),
        "penalty": lambda t: PerformanceModel(t, calibration=penalised),
        "k80": lambda t: PerformanceModel(t, machine_kind=MachineKind.PCIE_K80),
    }
    shared = {name: make(topo) for name, make in models.items()}
    for _ in range(2):  # the second round reads each model's memo
        answers = {
            name: perf.iteration_breakdown(job, cross_socket)
            for name, perf in shared.items()
        }
        for name, make in models.items():
            assert answers[name] == make(cluster(2)).iteration_breakdown(
                job, cross_socket
            )
        assert answers["penalty"].comm_s != answers["default"].comm_s
        assert answers["k80"].compute_s != answers["default"].compute_s


def test_gpu_count_is_checked_before_the_memo():
    topo = cluster(2)
    perf = PerformanceModel(topo)
    perf.iteration_breakdown(make_job(num_gpus=2), ["m0/gpu0", "m0/gpu1"])
    with pytest.raises(ValueError, match="allocation has 2 GPUs"):
        perf.iteration_breakdown(make_job(num_gpus=3), ["m1/gpu0", "m1/gpu1"])


def test_spanning_allocations_are_computed_directly():
    topo = cluster(2)
    perf = PerformanceModel(topo)
    job = make_job(num_gpus=2)
    got = perf.iteration_breakdown(job, ["m0/gpu0", "m1/gpu0"])
    assert perf._solo == {}
    assert got == PerformanceModel(cluster(2)).iteration_breakdown(
        job, ["m0/gpu0", "m1/gpu0"]
    )


def test_a_mutation_reaches_the_machine_kind_and_the_memo():
    """The kind is cached per shape id, so an NVLink edge added to a
    PCIe machine changes its kind, and the memo answers the new shape
    with the new kind."""
    topo = cluster(1, power8_pcie_k80)
    perf = PerformanceModel(topo)
    job = make_job(num_gpus=2)
    assert perf.machine_kind("m0") is MachineKind.PCIE_K80
    perf.iteration_breakdown(job, ["m0/gpu0", "m0/gpu1"])
    topo.add_edge("m0/gpu0", "m0/gpu1", 1.0, LinkSpec.nvlink(2))
    assert perf.machine_kind("m0") is MachineKind.NVLINK_P100
    got = perf.iteration_breakdown(job, ["m0/gpu0", "m0/gpu1"])
    fresh = PerformanceModel(topo).iteration_breakdown(job, ["m0/gpu0", "m0/gpu1"])
    assert got == fresh
