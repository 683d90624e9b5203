"""Stateful property test: AllocationState under random operation sequences."""

from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.topology.allocation import AllocationError, AllocationState
from repro.topology.builders import cluster


class AllocationMachine(RuleBasedStateMachine):
    """Random allocate/release/fail/recover sequences must never break
    the bookkeeping invariants."""

    def __init__(self) -> None:
        super().__init__()
        self.topo = cluster(3)
        self.state = AllocationState(self.topo)
        self.model: dict[str, frozenset[str]] = {}  # reference model
        self.counter = 0
        self.down: set[str] = set()

    jobs = Bundle("jobs")

    @rule(target=jobs, data=st.data())
    def allocate(self, data):
        free = self.state.free_gpus()
        # free_gpus() excludes down machines; allocation onto a down
        # machine is not attempted (matches scheduler behaviour)
        if not free:
            return None
        n = data.draw(st.integers(min_value=1, max_value=min(4, len(free))))
        chosen = data.draw(
            st.lists(
                st.sampled_from(free), min_size=n, max_size=n, unique=True
            )
        )
        job_id = f"job{self.counter}"
        self.counter += 1
        self.state.allocate(job_id, chosen)
        self.model[job_id] = frozenset(chosen)
        return job_id

    @rule(job_id=jobs)
    def release(self, job_id):
        if job_id is None:
            return
        if job_id in self.model:
            released = self.state.release(job_id)
            assert released == self.model.pop(job_id)
        else:
            try:
                self.state.release(job_id)
                raise AssertionError("double release must fail")
            except AllocationError:
                pass

    @rule(machine=st.sampled_from(["m0", "m1", "m2"]))
    def fail_machine(self, machine):
        victims = self.state.set_machine_down(machine)
        self.down.add(machine)
        # the simulator releases victims; mirror that here
        for job_id in victims:
            self.state.release(job_id)
            self.model.pop(job_id)

    @rule(machine=st.sampled_from(["m0", "m1", "m2"]))
    def recover_machine(self, machine):
        self.state.set_machine_up(machine)
        self.down.discard(machine)

    # ------------------------------------------------------------------
    @invariant()
    def owners_match_model(self):
        for job_id, gpus in self.model.items():
            assert self.state.gpus_of(job_id) == gpus
            for g in gpus:
                assert self.state.owner_of(g) == job_id

    @invariant()
    def free_counts_consistent(self):
        healthy_free = 0
        for m in self.topo.machines():
            expected_busy = sum(
                1
                for gpus in self.model.values()
                for g in gpus
                if self.topo.machine_of(g) == m
            )
            total = len(self.topo.gpus(machine=m))
            if m in self.down:
                assert self.state.free_count(m) == 0
            else:
                assert self.state.free_count(m) == total - expected_busy
                healthy_free += total - expected_busy
        # a down machine's free GPUs are excluded from the total
        assert self.state.total_free_count() == healthy_free

    @invariant()
    def utilization_matches(self):
        busy = sum(len(g) for g in self.model.values())
        assert self.state.utilization() == busy / 12

    @invariant()
    def jobs_by_machine_consistent(self):
        for m in self.topo.machines():
            expected = {
                job_id
                for job_id, gpus in self.model.items()
                if any(self.topo.machine_of(g) == m for g in gpus)
            }
            assert self.state.jobs_on_machine(m) == expected


AllocationMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
TestAllocationStateMachine = AllocationMachine.TestCase
