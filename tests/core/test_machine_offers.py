"""Host filtering reuses a machine's candidate pool only while the
machine is unchanged.

``AllocationState.offer`` keeps each machine's free GPUs as one tuple
until ``allocate``, ``release``, ``set_machine_down`` or
``set_machine_up`` touches the machine, and ``filter_hosts`` (both the
prefiltered and the exhaustive path) reuses the pool it built on that
tuple.  A hypothesis property drives random mutation sequences,
repeated health heartbeats included, on a mixed cluster and checks
after every step that each reused pool equals one built from
``free_gpus`` (computed from the owner table, not the offer), that an
untouched machine's pool is reused as the same object, and that
``filter_hosts`` on either path returns the pools a fresh allocation
state with the same owners and health gives.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.constraints import (
    CandidatePool,
    CandidatePrefilter,
    _machine_pool,
    filter_hosts,
)
from repro.topology.allocation import AllocationState
from repro.topology.builders import cluster, dgx1, power8_minsky, power8_pcie_k80
from repro.workload.job import Job, ModelType


def _mixed(machine_id: str):
    builders = (power8_minsky, dgx1, power8_pcie_k80)
    return builders[int(machine_id[1:]) % 3](machine_id)


TOPO = cluster(5, _mixed)
MACHINES = TOPO.machines()

_op = st.one_of(
    st.tuples(st.just("allocate"), st.sampled_from(MACHINES),
              st.integers(1, 8), st.booleans()),
    st.tuples(st.just("release"), st.integers(0, 1 << 16)),
    st.tuples(st.just("down"), st.sampled_from(MACHINES)),
    st.tuples(st.just("up"), st.sampled_from(MACHINES)),
)


def _apply(alloc: AllocationState, op, serial: int) -> set[str]:
    """Run ``op``; return the machines it may have touched."""
    kind = op[0]
    if kind == "allocate":
        _, machine, n, span = op
        free = [g for g in TOPO.gpus(machine=machine) if alloc.is_free(g)]
        gpus = free[:n]
        touched = {machine}
        if span:  # take one more GPU from the next machine
            nxt = MACHINES[(MACHINES.index(machine) + 1) % len(MACHINES)]
            more = [g for g in TOPO.gpus(machine=nxt) if alloc.is_free(g)]
            gpus += more[:1]
            touched.add(nxt)
        if gpus:
            alloc.allocate(f"j{serial}", gpus)
        return touched
    if kind == "release":
        jobs = sorted(alloc.jobs())
        if not jobs:
            return set()
        job_id = jobs[op[1] % len(jobs)]
        return {TOPO.machine_of(g) for g in alloc.release(job_id)}
    if kind == "down":
        alloc.set_machine_down(op[1])
    else:
        alloc.set_machine_up(op[1])
    return {op[1]}


def _fresh(alloc: AllocationState) -> AllocationState:
    """A new allocation state with ``alloc``'s owners and health."""
    fresh = AllocationState(TOPO)
    for job_id, gpus in alloc.jobs().items():
        fresh.allocate(job_id, gpus)
    for m in MACHINES:
        if not alloc.is_machine_up(m):
            fresh.set_machine_down(m)
    return fresh


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(_op, min_size=1, max_size=30),
    need=st.integers(1, 4),
    anti=st.booleans(),
)
def test_reused_pools_equal_fresh_builds(ops, need, anti):
    alloc = AllocationState(TOPO)
    job = Job("q", ModelType.ALEXNET, 16, need, anti_collocation=anti,
              single_node=False)
    before = {m: _machine_pool(alloc, m) for m in MACHINES}
    for serial, op in enumerate(ops):
        touched = _apply(alloc, op, serial)
        for m in MACHINES:
            pool = _machine_pool(alloc, m)
            assert pool == CandidatePool(
                (m,), tuple(alloc.free_gpus(machine=m))
            )
            if m not in touched:
                assert pool is before[m]
            before[m] = pool
        fresh = _fresh(alloc)
        expected = filter_hosts(TOPO, fresh, job)
        assert filter_hosts(TOPO, alloc, job) == expected
        k = len(MACHINES)
        assert filter_hosts(
            TOPO, alloc, job, prefilter=CandidatePrefilter(k)
        ) == filter_hosts(TOPO, fresh, job, prefilter=CandidatePrefilter(k))
