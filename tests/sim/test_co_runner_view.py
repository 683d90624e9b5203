"""The live co-runner view stays in step with the running-job table.

``ClusterState.co_runners()`` returns a view maintained by every
lifecycle mutator instead of a per-round rebuild, so each path that
adds or removes a running job — placement, finish, cancel, preemption,
migration and machine failure — must update it in the same order as
``ClusterState.running``.  The view is read-only, so a scheduler
cannot break that invariant by writing to it.
"""

from types import MappingProxyType

import pytest

from repro.analysis.scenarios import fragmentation_jobs
from repro.schedulers.fcfs import FCFSScheduler
from repro.schedulers.topo import TopoAwareScheduler
from repro.sim.engine import Simulator
from repro.sim.events import MachineFailure
from repro.sim.hooks import BaseObserver
from repro.topology.builders import cluster
from repro.workload.job import Job, ModelType


class _Tally(BaseObserver):
    def __init__(self):
        self.evictions = []
        self.failure_victims = []

    def on_evict(self, t, job, gpus, reason):
        self.evictions.append(reason)

    def on_failure(self, t, machine, victims):
        self.failure_victims.extend(v.job_id for v in victims)


def _assert_view_matches(cluster_state):
    expected = {j: (r.job, r.gpus) for j, r in cluster_state.running.items()}
    view = cluster_state.co_runners()
    assert list(view.items()) == list(expected.items())


def test_view_tracks_every_lifecycle_path():
    jobs = fragmentation_jobs() + [
        Job("victim", ModelType.ALEXNET, 1, 2, min_utility=0.0,
            arrival_time=60.0, iterations=3000),
        Job("split", ModelType.ALEXNET, 1, 2, min_utility=0.0,
            arrival_time=1.0, iterations=30000, single_node=False),
    ]
    scheduler = TopoAwareScheduler(
        preempt=True, defrag_interval=1, defrag_min_gain=0.0
    )
    tally = _Tally()
    sim = Simulator(
        cluster(3),
        scheduler,
        jobs,
        failures=[MachineFailure(machine="m2", at_time=120.0, duration_s=60.0)],
        observers=[tally],
    )
    sim.start()
    _assert_view_matches(sim.cluster)
    while True:
        more = sim.step()
        _assert_view_matches(sim.cluster)
        if "victim" in sim.cluster.running and "cancel" not in tally.evictions:
            assert sim.cancel_job("victim")[0] == "running"
            _assert_view_matches(sim.cluster)
        if not more:
            break
    assert "cancel" in tally.evictions
    assert "preempt" in tally.evictions
    assert "migrate" in tally.evictions
    assert tally.failure_victims
    assert sim.cluster.co_runners() == {}


class _WritesThroughView(FCFSScheduler):
    """A policy that registers its placements in ``ctx.co_runners``
    itself, as a scheduler that forgot the round view would."""

    def schedule(self, ctx):
        queued = {job.job_id: job for job in self.queued_jobs()}
        placed = super().schedule(ctx)
        for s in placed:
            ctx.co_runners[s.job_id] = (queued[s.job_id], frozenset(s.gpus))
        return placed


def test_a_scheduler_cannot_write_to_the_view():
    jobs = [Job("a", ModelType.ALEXNET, 1, 2, iterations=100)]
    sim = Simulator(cluster(1), _WritesThroughView(), jobs)
    with pytest.raises(TypeError):
        sim.run()
    assert sim.cluster.co_runners() == {}
    assert isinstance(sim.cluster.co_runners(), MappingProxyType)
