"""Eviction lifecycle: cancel accounting, preemption, defrag, PM policy."""

import pytest

from repro.analysis.gantt import GanttObserver
from repro.analysis.scenarios import fragmentation_jobs, table1_jobs
from repro.core.utility import SLO_EPS, UtilityParams, migration_penalty
from repro.obs.provenance import DecisionRecorder
from repro.obs.telemetry import TelemetryObserver
from repro.schedulers import make_scheduler
from repro.schedulers.topo import TopoAwareScheduler
from repro.sim.engine import Simulator
from repro.sim.hooks import BaseObserver
from repro.sim.metrics import (
    UtilizationObserver,
    qos_slowdown,
    summarize,
    total_slowdown,
)
from repro.sim.runner import run_comparison, run_with_observers
from repro.topology.builders import cluster, power8_minsky

from tests.conftest import make_job


def started_sim(jobs, scheduler="FCFS", topo=None, observers=()):
    sim = Simulator(
        topo if topo is not None else power8_minsky(),
        make_scheduler(scheduler),
        jobs,
        observers=list(observers),
    )
    sim.start()
    return sim


class TestCancelAccounting:
    """The tentpole bug: cancelling a *running* job must reach every
    observer, not just silently pop the cluster entry."""

    def test_cancel_mid_run_closes_every_book(self):
        # A long job placed at t=0, a short one arriving at t=10 so the
        # clock has moved when we cancel; cancel the long one mid-run.
        long_job = make_job("long", num_gpus=2, iterations=5000)
        short_job = make_job("short", num_gpus=1, iterations=50,
                             arrival_time=10.0)
        gantt = GanttObserver()
        util = UtilizationObserver(total_gpus=4)
        telemetry = TelemetryObserver(scheduler="FCFS")
        sim = started_sim(
            [long_job, short_job], observers=[gantt, util, telemetry]
        )
        sim.step()  # arrival(long) -> placed
        sim.step()  # arrival(short) -> placed; now = 10
        assert set(sim.cluster.running) == {"long", "short"}
        busy_before = util._busy
        running_gauge = telemetry.registry.get("repro_running_jobs")
        assert running_gauge.value(scheduler="FCFS") == 2

        phase, touched = sim.cancel_job("long")
        assert phase == "running"
        assert touched  # freed machines need a decision round

        # Gantt bar closed at the cancel time, not left dangling
        span = next(s for s in gantt.spans if s.job_id == "long")
        assert span.end == sim.cluster.now == 10.0
        # utilization stepped down by the job's 2 GPUs
        assert util._busy == busy_before - 2
        assert util.steps[-1] == (10.0, util._busy / 4)
        # running-jobs gauge dropped
        assert running_gauge.value(scheduler="FCFS") == 1
        evicted = telemetry.registry.get("repro_evictions_total")
        assert evicted.value(scheduler="FCFS", reason="cancel") == 1

        # the pending Finish event for the cancelled job is stale: the
        # run drains cleanly and the record stays unfinished-by-cancel
        while sim.step():
            pass
        result = sim.finish()
        rec = {r.job.job_id: r for r in result.records}
        assert rec["long"].finished_at is None
        assert rec["long"].cancelled_at == 10.0
        assert rec["short"].finished_at is not None

    def test_cancelled_record_is_terminal_not_unfinished(self):
        sim = started_sim([make_job("j", num_gpus=2, iterations=5000)])
        sim.step()
        sim.cancel_job("j")
        rec = sim.record_of("j")
        assert rec.terminal
        assert rec.end_time == rec.cancelled_at
        # cancelled != unfinished: no slowdown, never an error
        assert qos_slowdown(rec) is None
        assert total_slowdown(rec, unfinished="skip") is None
        summary = summarize(sim.finish())
        assert summary["cancelled"] == 1
        assert summary["finished"] == 0

    def test_cancel_queued_job_fires_evict_with_no_gpus(self):
        events = []

        class Tap(BaseObserver):
            def on_evict(self, t, job, gpus, reason):
                events.append((job.job_id, set(gpus), reason))

        blocker = make_job("blocker", num_gpus=4, iterations=5000)
        waiter = make_job("waiter", num_gpus=4, iterations=100,
                          arrival_time=1.0)
        sim = started_sim([blocker, waiter], observers=[Tap()])
        sim.step()
        sim.step()
        assert "waiter" not in sim.cluster.running
        phase, _ = sim.cancel_job("waiter")
        assert phase == "queued"
        assert events == [("waiter", set(), "cancel")]


class TestPreemption:
    def test_preempted_job_resumes_with_its_progress(self):
        job = make_job("j", num_gpus=2, iterations=4000)
        sim = started_sim([job])
        sim.step()
        run = sim.cluster.running["j"]
        solo = run.solo
        # burn ~half the job, then preempt
        sim.cluster.advance_to(solo / 2)
        touched = sim.preempt_job("j")
        assert "j" not in sim.cluster.running
        assert touched
        rec = sim.record_of("j")
        assert rec.preemptions == 1
        assert rec.placed_at is None  # awaiting re-placement

        sim.run_round(touched)  # re-place immediately on the same GPUs
        resumed = sim.cluster.running["j"]
        cost = sim.cluster.params.migration_cost_s
        # work conservation: remaining = unfinished half + migration
        # cost, not a cold restart of the full solo duration
        assert resumed.remaining == pytest.approx(solo / 2 + cost, rel=1e-6)
        while sim.step():
            pass
        assert sim.record_of("j").finished_at is not None

    def test_checkpoint_consumed_on_resume_and_dropped_on_cancel(self):
        job = make_job("j", num_gpus=1, iterations=1000)
        sim = started_sim([job])
        sim.step()
        solo = sim.cluster.running["j"].solo
        sim.cluster.advance_to(solo * 0.25)
        touched = sim.preempt_job("j")
        assert sim.cluster._checkpoints["j"] == pytest.approx(0.25, rel=1e-6)
        sim.run_round(touched)  # re-placed: the checkpoint is consumed
        assert "j" in sim.cluster.running
        assert "j" not in sim.cluster._checkpoints
        sim.cancel_job("j")  # cancel after a resume leaves nothing behind
        assert "j" not in sim.cluster._checkpoints

    def test_migration_penalty_caps_at_weight(self):
        params = UtilityParams(migration_cost_s=30.0, migration_weight=0.25)
        # nearly-done victim: full penalty; long-running victim: scaled
        assert migration_penalty(1.0, params) == pytest.approx(0.25)
        assert migration_penalty(300.0, params) == pytest.approx(0.025)


class TestSloEpsilon:
    def test_single_shared_tolerance_constant(self):
        from repro.core import placement, utility
        from repro.schedulers import topo

        assert placement.SLO_EPS is utility.SLO_EPS
        assert topo.SLO_EPS is utility.SLO_EPS
        assert SLO_EPS == 1e-12


class TestPMPolicy:
    def test_pm_with_knobs_off_is_bit_identical_to_p(self):
        """Preemption machinery disabled (no priorities, no defrag)
        must not perturb a single decision vs TOPO-AWARE-P."""
        jobs = table1_jobs()  # all priority 0
        baseline = run_with_observers(
            power8_minsky(), make_scheduler("TOPO-AWARE-P"), jobs
        )
        pm_scheduler = TopoAwareScheduler(
            postpone=True, preempt=True, defrag_interval=0
        )
        pm = run_with_observers(power8_minsky(), pm_scheduler, jobs)
        base_recs = {r.job.job_id: r for r in baseline.records}
        for rec in pm.records:
            twin = base_recs[rec.job.job_id]
            assert rec.placed_at == twin.placed_at
            assert rec.finished_at == twin.finished_at
            assert rec.gpus == twin.gpus
            assert rec.utility == twin.utility
            assert rec.preemptions == 0 and rec.migrations == 0

    def test_pm_beats_p_on_fragmented_cluster(self):
        """The acceptance scenario: scattered holes + pinned longs.
        PM must preempt/consolidate and finish no later than P."""
        jobs = fragmentation_jobs()
        recorders = {}

        def observer_factory(name):
            recorders[name] = DecisionRecorder()
            return [recorders[name]]

        results = run_comparison(
            lambda: cluster(2),
            jobs,
            ("TOPO-AWARE-P", "TOPO-AWARE-PM"),
            observer_factory=observer_factory,
        )
        p = summarize(results["TOPO-AWARE-P"])
        pm = summarize(results["TOPO-AWARE-PM"])
        assert pm["makespan_s"] <= p["makespan_s"]
        assert pm["preemptions"] >= 1
        assert p["preemptions"] == 0

        # every eviction is justified in the decision provenance with
        # its utility economics
        evictions = [
            d
            for d in recorders["TOPO-AWARE-PM"].decisions()
            if d.get("verdict") == "evict"
        ]
        assert len(evictions) >= 1
        for record in evictions:
            evict = record["evict"]
            assert evict["kind"] in ("preempt", "migrate")
            assert evict["gain"] > evict["min_gain"]
            for key in ("victim", "victim_utility", "job_utility",
                        "migration_penalty"):
                assert key in evict
            if evict["kind"] == "preempt":
                assert evict["victim_priority"] < evict["job_priority"]

    def test_defrag_migrates_a_scattered_job(self):
        """An aggressive defrag config consolidates a cross-machine
        placement once co-runners drain."""
        # blockers leave one free GPU per machine, forcing the 2-GPU
        # job into a cross-machine placement; once they drain, defrag
        # should migrate it onto a single machine
        blocker_a = make_job("blka", num_gpus=3, iterations=150)
        blocker_b = make_job("blkb", num_gpus=3, iterations=150)
        split = make_job("split", num_gpus=2, iterations=30000,
                         arrival_time=1.0, min_utility=0.0,
                         single_node=False)
        late = make_job("late", num_gpus=1, iterations=100,
                        arrival_time=500.0)
        scheduler = TopoAwareScheduler(
            postpone=False, preempt=True, defrag_interval=1,
            defrag_min_gain=0.0,
        )
        result = run_with_observers(
            cluster(2), scheduler, [blocker_a, blocker_b, split, late]
        )
        rec = {r.job.job_id: r for r in result.records}
        assert rec["split"].migrations >= 1
        machines = {g.split("/")[0] for g in rec["split"].gpus}
        assert len(machines) == 1  # consolidated onto one machine
        assert rec["split"].finished_at is not None

    def test_factory_spells_pm(self):
        sched = make_scheduler("TOPO-AWARE-PM")
        assert sched.name == "TOPO-AWARE-PM"
        assert sched.preempt and sched.postpone
