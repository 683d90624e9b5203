"""Whole simulations match the per-job progress loop bit for bit.

The oracle is a test-only ``ClusterState`` whose ``advance_to`` keeps
the scalar loop the columnar burn-down replaced: for every running job,
``run.remaining -= dt * run.rate`` in Python floats.  Driven through
``Simulator`` on a preempting/migrating trace with operator cancels, a
trace with machine failure and recovery, and a mixed DGX-1 / PCIe-K80
cluster, the real class must give identical records.  It also checks
that every run handed back by ``finish``, ``cancel``, ``preempt`` and
``fail_machine`` keeps its final ``remaining``/``rate`` after it left
the columns, however the remaining slots move afterwards.
"""

from __future__ import annotations

import pytest

from repro.analysis.bench import first_record_difference
from repro.schedulers import make_scheduler
from repro.sim.cluster import ClusterState
from repro.sim.engine import Simulator
from repro.sim.events import MachineFailure
from repro.topology.builders import cluster, dgx1, power8_pcie_k80
from repro.workload.generator import GeneratorConfig, WorkloadGenerator

from tests.schedulers.test_probe_pruning import _contended_trace


class _ScalarLoop(ClusterState):
    """The oracle: one Python multiply and subtract per running job."""

    def advance_to(self, t: float) -> None:
        dt = t - self.now
        if dt < 0:
            raise RuntimeError(f"time went backwards: {self.now} -> {t}")
        if dt > 0:
            for run in self.running.values():
                run.remaining -= dt * run.rate
        self.now = t


class _Detaching(ClusterState):
    """The real class, checking every run it hands back on removal."""

    def __init__(self, topo):
        super().__init__(topo)
        self.detached: dict[str, list] = {
            "finish": [], "cancel": [], "preempt": [], "fail_machine": []
        }

    def _removes(self, verb: str, *args):
        before = {j: (r.remaining, r.rate) for j, r in self.running.items()}
        out = getattr(super(), verb)(*args)
        runs = out[0] if verb == "fail_machine" else [out[0]]
        for run in runs:
            final = before[run.job.job_id]
            assert (run.remaining, run.rate) == final
            self.detached[verb].append((run, final))
        return out

    def finish(self, job_id):
        return self._removes("finish", job_id)

    def cancel(self, job_id):
        return self._removes("cancel", job_id)

    def preempt(self, job_id):
        return self._removes("preempt", job_id)

    def fail_machine(self, machine):
        return self._removes("fail_machine", machine)


def _mixed(machine_id: str):
    builders = (dgx1, power8_pcie_k80)
    return builders[int(machine_id[1:]) % 2](machine_id)


def _generated(seed, n_jobs, rate, gpu_counts, probs):
    cfg = GeneratorConfig(arrival_rate_per_min=rate, gpu_counts=gpu_counts,
                          gpu_count_probs=probs)
    return WorkloadGenerator(cfg, seed=seed).generate(n_jobs)


#: name -> (topology, policy, trace, failures, cancel every n-th step)
TRACES = {
    "pm": (lambda: cluster(10), "TOPO-AWARE-PM",
           lambda: _contended_trace(7, 60, 0.3), (), 15),
    "failure": (lambda: cluster(6), "BF",
                lambda: _generated(3, 80, 12.0, (1, 2, 4), (0.4, 0.4, 0.2)),
                (MachineFailure("m1", 150.0, 400.0),
                 MachineFailure("m4", 300.0, None),
                 MachineFailure("m2", 500.0, 60.0)), 0),
    "mixed": (lambda: cluster(6, _mixed), "TOPO-AWARE-P",
              lambda: _generated(5, 90, 20.0, (1, 2, 4, 8),
                                 (0.35, 0.35, 0.2, 0.1)), (), 0),
}


def _drive(name: str, state_cls):
    make_topo, policy, make_jobs, failures, cancel_every = TRACES[name]
    topo = make_topo()
    state = state_cls(topo)
    sim = Simulator(topo, make_scheduler(policy), make_jobs(),
                    cluster=state, failures=failures)
    sim.start()
    steps = 0
    while sim.step():
        steps += 1
        if cancel_every and steps % cancel_every == 0 and state.running:
            _, touched = sim.cancel_job(min(state.running))
            sim.run_round(touched)
    return sim.finish(), state


@pytest.mark.parametrize("name", sorted(TRACES))
def test_columns_match_the_scalar_oracle(name):
    fast, state = _drive(name, _Detaching)
    slow, _ = _drive(name, _ScalarLoop)
    assert first_record_difference(fast, slow) is None
    assert fast.makespan == slow.makespan
    assert fast.decision_rounds == slow.decision_rounds
    # removed runs kept their final values through every later slot move
    for runs in state.detached.values():
        for run, final in runs:
            assert type(run.remaining) is float and type(run.rate) is float
            assert (run.remaining, run.rate) == final
    # not vacuous: each trace reaches the paths it is named for
    assert state.detached["finish"]
    if name == "pm":
        assert state.detached["cancel"] and state.detached["preempt"]
        assert any(r.preemptions for r in fast.records)
        assert any(r.migrations for r in fast.records)
    if name == "failure":
        assert state.detached["fail_machine"]
        assert any(r.restarts for r in fast.records)
