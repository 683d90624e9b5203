"""One value on every surface at every round boundary.

The obs taps read cluster facts from the simulation they are bound to
instead of rebuilding them from the hook stream.  This test keeps a
copy of the bookkeeping they used to do — GPUs held per job, busy and
running counts, per-job postponement deltas, requeues — in a test-only
shadow observer, and checks at every ``on_decision_round`` that the
telemetry gauges, the watchdog signals and the snapshot read the same
values.  Out-of-round evictions (``cancel_job`` / ``preempt_job``
between steps) are checked right after the call returns.
"""

import dataclasses

from repro.analysis.scenarios import scenario1_jobs
from repro.obs import MetricsRegistry
from repro.obs.alerts import DEFAULT_RULES, Rule, Watchdog
from repro.obs.state import SnapshotObserver, SnapshotPublisher
from repro.obs.telemetry import TelemetryObserver
from repro.schedulers import make_scheduler
from repro.sim.engine import Simulator
from repro.sim.events import MachineFailure
from repro.sim.hooks import BaseObserver
from repro.topology.builders import cluster

#: every cluster- and registry-backed signal is read by some rule, so
#: the watchdog derives all of them in its own round
RULES = DEFAULT_RULES + (
    Rule("requeues", "requeues_total", ">", 1e9),
    Rule("running", "running_jobs", "<", -1.0),
)


class Shadow(BaseObserver):
    """The deleted tap bookkeeping, rebuilt from the hooks."""

    def __init__(self) -> None:
        self.held: dict[str, int] = {}
        self.busy = 0
        self.running = 0
        self.seen: dict[str, int] = {}
        self.postponements = 0
        self.requeues = 0

    def on_place(self, t, job, solution, solo_exec_time, postponements):
        new = postponements - self.seen.get(job.job_id, 0)
        if new > 0:
            self.postponements += new
            self.seen[job.job_id] = postponements
        self.held[job.job_id] = len(solution.gpus)
        self.busy += len(solution.gpus)
        self.running += 1

    def on_finish(self, t, job, gpus):
        self.busy -= self.held.pop(job.job_id, 0)
        self.seen.pop(job.job_id, None)
        self.running -= 1

    def on_failure(self, t, machine, victims):
        for job in victims:
            self.busy -= self.held.pop(job.job_id, 0)
            self.running -= 1

    def on_requeue(self, t, job):
        self.requeues += 1

    def on_evict(self, t, job, gpus, reason):
        if reason == "cancel":
            self.seen.pop(job.job_id, None)
        freed = self.held.pop(job.job_id, None)
        if freed is not None:
            self.busy -= freed
            self.running -= 1


class Surfaces:
    """The taps under test plus a shadow that checks them each round."""

    def __init__(self, scheduler: str) -> None:
        self.scheduler = scheduler
        self.registry = MetricsRegistry()
        self.telemetry = TelemetryObserver(self.registry, scheduler=scheduler)
        self.watchdog = Watchdog(self.registry, RULES, scheduler=scheduler)
        self.publisher = SnapshotPublisher()
        self.snapshots = SnapshotObserver(
            self.publisher, min_publish_interval_s=0.0
        )
        self.shadow = Shadow()
        self.rounds_checked = 0
        surfaces = self

        class Check(BaseObserver):
            def on_decision_round(self, t, placed, queued, elapsed_s):
                surfaces.check_gauges()
                surfaces.check_round(queued)

        # the checker runs last, after every tap has seen the round
        self.observers = [
            self.telemetry, self.watchdog, self.snapshots, self.shadow,
            Check(),
        ]

    def gauge(self, name: str) -> float:
        return self.registry.get(name).value(scheduler=self.scheduler)

    def check_gauges(self) -> None:
        shadow = self.shadow
        assert self.gauge("repro_gpus_busy") == shadow.busy
        assert self.gauge("repro_running_jobs") == shadow.running
        assert self.gauge("repro_gpu_utilization") == (
            shadow.busy / self.publisher.snapshot.total_gpus
        )

    def check_round(self, queued: int) -> None:
        shadow = self.shadow
        signals = self.watchdog.signals(queued)
        assert signals["utilization"] == (
            shadow.busy / self.publisher.snapshot.total_gpus
        )
        assert signals["running_jobs"] == shadow.running
        assert signals["postponements_total"] == shadow.postponements
        assert signals["requeues_total"] == shadow.requeues
        assert self.publisher.snapshot.gpus_busy == shadow.busy
        engine = self.watchdog._cluster.engine
        assert self.gauge("repro_placement_cache_misses_total") == (
            engine.stats.misses
        )
        assert self.gauge("repro_placement_cache_hits_total") == (
            engine.stats.hits
        )
        assert self.gauge("repro_placement_prefilter_considered_total") == (
            engine.prefilter.stats.considered
        )
        self.rounds_checked += 1


def run(surfaces: Surfaces, jobs, n_machines: int, **sim_kwargs):
    sim = Simulator(
        cluster(n_machines),
        make_scheduler(surfaces.scheduler),
        jobs,
        observers=surfaces.observers,
        **sim_kwargs,
    )
    result = sim.run()
    assert surfaces.rounds_checked == result.decision_rounds
    return result


def test_failure_run_agrees_at_every_round():
    surfaces = Surfaces("TOPO-AWARE-P")
    result = run(
        surfaces,
        scenario1_jobs(60, seed=1),
        3,
        failures=[MachineFailure(machine="m1", at_time=300.0, duration_s=600.0)],
    )
    assert sum(r.restarts for r in result.records) > 0
    assert surfaces.shadow.requeues > 0
    assert surfaces.shadow.postponements > 0
    assert surfaces.shadow.busy == 0 and surfaces.shadow.running == 0


def test_preempting_run_agrees_at_every_round():
    # every eighth job outranks the rest: TOPO-AWARE-PM preempts for
    # them and migrates split jobs back together
    jobs = [
        dataclasses.replace(job, priority=1) if i % 8 == 7 else job
        for i, job in enumerate(scenario1_jobs(60, seed=1))
    ]
    surfaces = Surfaces("TOPO-AWARE-PM")
    result = run(surfaces, jobs, 3)
    assert sum(r.migrations for r in result.records) > 0
    assert sum(r.preemptions - r.migrations for r in result.records) > 0
    assert surfaces.shadow.postponements > 0


def test_out_of_round_evictions_agree():
    surfaces = Surfaces("TOPO-AWARE-P")
    sim = Simulator(
        cluster(3),
        make_scheduler("TOPO-AWARE-P"),
        scenario1_jobs(40, seed=1),
        observers=surfaces.observers,
    )
    sim.start()

    def step_until_running(n: int) -> list[str]:
        while len(sim.cluster.running) < n:
            assert sim.step(), "trace drained before enough jobs ran"
        return sorted(sim.cluster.running)

    victim = step_until_running(2)[0]
    phase, touched = sim.cancel_job(victim)
    assert phase == "running"
    surfaces.check_gauges()
    sim.run_round(touched)

    victim = step_until_running(2)[0]
    touched = sim.preempt_job(victim)
    surfaces.check_gauges()
    sim.run_round(touched)

    while sim.step():
        pass
    result = sim.finish()
    assert surfaces.rounds_checked == result.decision_rounds
    assert surfaces.registry.get("repro_evictions_total").value(
        scheduler="TOPO-AWARE-P", reason="preempt"
    ) == 1

