"""TelemetryObserver: sim hooks -> registry + event log, tap-only."""

import pytest

from repro.analysis.scenarios import table1_jobs
from repro.obs import EventLog, MetricsRegistry
from repro.obs.export import parse_prometheus, render_prometheus, sample_value
from repro.obs.telemetry import TelemetryObserver
from repro.schedulers import make_scheduler
from repro.sim.events import MachineFailure
from repro.sim.runner import run_with_observers
from repro.topology.builders import power8_minsky


@pytest.fixture()
def run_table1():
    registry = MetricsRegistry()
    log = EventLog()
    observer = TelemetryObserver(
        registry, log, scheduler="TOPO-AWARE-P", total_gpus=4
    )
    jobs = table1_jobs()
    observer.run_start(len(jobs))
    result = run_with_observers(
        power8_minsky(),
        make_scheduler("TOPO-AWARE-P"),
        jobs,
        observers=(observer,),
    )
    observer.run_end(result)
    return registry, log, result


class TestMetricsFromRun:
    def test_lifecycle_counters(self, run_table1):
        registry, _, result = run_table1
        labels = {"scheduler": "TOPO-AWARE-P"}
        families = parse_prometheus(render_prometheus(registry))
        n = len(result.records)
        assert sample_value(families, "repro_jobs_arrived_total", labels=labels) == n
        assert sample_value(families, "repro_jobs_placed_total", labels=labels) == n
        assert sample_value(families, "repro_jobs_finished_total", labels=labels) == n

    def test_at_least_twelve_distinct_families(self, run_table1):
        registry, _, _ = run_table1
        families = parse_prometheus(render_prometheus(registry))
        assert len(families) >= 12
        assert families["repro_decision_latency_seconds"]["type"] == "histogram"
        assert families["repro_queue_depth"]["type"] == "gauge"

    def test_decision_latency_histogram_counts_rounds(self, run_table1):
        registry, _, result = run_table1
        hist = registry.get("repro_decision_latency_seconds")
        assert hist.count(scheduler="TOPO-AWARE-P") == result.decision_rounds
        assert hist.sum(scheduler="TOPO-AWARE-P") == pytest.approx(
            result.decision_time_s
        )

    def test_fastpath_counters_mirror_run_stats(self, run_table1):
        """The prefilter counter families report exactly what the
        engine's own stats dict says the run did."""
        registry, _, result = run_table1
        sched = {"scheduler": "TOPO-AWARE-P"}
        pf = result.prefilter_stats
        assert pf["calls"] > 0
        assert registry.get(
            "repro_placement_prefilter_considered_total"
        ).value(**sched) == pf["considered"]
        assert registry.get(
            "repro_placement_prefilter_pruned_total"
        ).value(**sched) == pf["pruned"]

    def test_gauges_return_to_idle_after_run(self, run_table1):
        registry, _, _ = run_table1
        assert registry.get("repro_gpus_busy").value(scheduler="TOPO-AWARE-P") == 0
        assert registry.get("repro_running_jobs").value(scheduler="TOPO-AWARE-P") == 0
        assert registry.get("repro_queue_depth").value(scheduler="TOPO-AWARE-P") == 0


class TestEventsFromRun:
    def test_every_lifecycle_event_logged(self, run_table1):
        _, log, result = run_table1
        n = len(result.records)
        assert len(log.of_type("arrival")) == n
        assert len(log.of_type("place")) == n
        assert len(log.of_type("finish")) == n
        assert len(log.of_type("run_start")) == 1
        assert len(log.of_type("run_end")) == 1

    def test_events_carry_scheduler_and_ordering(self, run_table1):
        _, log, _ = run_table1
        assert all(e["scheduler"] == "TOPO-AWARE-P" for e in log.events)
        times = [e["t"] for e in log.events]
        assert times == sorted(times)

    def test_place_events_expose_placement_facts(self, run_table1):
        _, log, result = run_table1
        by_job = {e["job_id"]: e for e in log.of_type("place")}
        for record in result.records:
            event = by_job[record.job.job_id]
            assert event["gpus"] == sorted(record.gpus)
            assert event["utility"] == pytest.approx(record.utility)
            assert event["postponements"] == record.postponements


class TestFailuresAndRequeues:
    def test_failure_victims_requeued_and_counted(self):
        registry = MetricsRegistry()
        log = EventLog()
        observer = TelemetryObserver(
            registry, log, scheduler="TOPO-AWARE", total_gpus=4
        )
        run_with_observers(
            power8_minsky(),
            make_scheduler("TOPO-AWARE"),
            table1_jobs(),
            observers=(observer,),
            failures=[MachineFailure(machine="m0", at_time=40.0, duration_s=5.0)],
        )
        labels = {"scheduler": "TOPO-AWARE"}
        assert registry.get("repro_machine_failures_total").value(**labels) == 1
        requeued = registry.get("repro_jobs_requeued_total").value(**labels)
        assert requeued >= 1
        assert len(log.of_type("requeue")) == requeued
        (failure_event,) = log.of_type("failure")
        assert failure_event["machine"] == "m0"
        assert len(failure_event["victims"]) == requeued


class TestTapOnly:
    def test_attaching_telemetry_does_not_change_results(self):
        bare = run_with_observers(
            power8_minsky(), make_scheduler("TOPO-AWARE-P"), table1_jobs()
        )
        observer = TelemetryObserver(
            MetricsRegistry(), EventLog(), scheduler="TOPO-AWARE-P", total_gpus=4
        )
        tapped = run_with_observers(
            power8_minsky(),
            make_scheduler("TOPO-AWARE-P"),
            table1_jobs(),
            observers=(observer,),
        )
        assert bare.makespan == tapped.makespan
        for a, b in zip(bare.records, tapped.records):
            assert a.placed_at == b.placed_at
            assert a.finished_at == b.finished_at
            assert a.gpus == b.gpus
            assert a.utility == b.utility
