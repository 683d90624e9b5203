"""TelemetryObserver: sim hooks -> registry, tap-only; the lifecycle
facts of the same run land in the decision recorder's records."""

import json

import pytest

from repro.analysis.scenarios import scenario1_jobs, table1_jobs
from repro.obs import MetricsRegistry
from repro.obs.alerts import Watchdog
from repro.obs.export import parse_prometheus, render_prometheus, sample_value
from repro.obs.provenance import DecisionRecorder, records_of
from repro.obs.telemetry import TelemetryObserver
from repro.schedulers import make_scheduler
from repro.sim.events import MachineFailure
from repro.sim.runner import run_with_observers
from repro.topology.builders import cluster, power8_minsky


def journal_records(recorder: DecisionRecorder) -> list[dict]:
    return [json.loads(line) for line in recorder.journal]


@pytest.fixture()
def run_table1():
    registry = MetricsRegistry()
    observer = TelemetryObserver(registry, scheduler="TOPO-AWARE-P")
    recorder = DecisionRecorder(journal=True)
    result = run_with_observers(
        power8_minsky(),
        make_scheduler("TOPO-AWARE-P"),
        table1_jobs(),
        observers=(observer, recorder),
    )
    return registry, journal_records(recorder), result


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
    """The lifecycle facts the old event log kept, as records."""

    def test_every_lifecycle_event_logged(self, run_table1):
        _, records, result = run_table1
        n = len(result.records)
        states = [r["state"] for r in records_of("job", records)]
        assert states.count("QUEUED") == n
        assert states.count("RUNNING") == n
        assert states.count("FINISHED") == n
        assert len(records_of("run_start", records)) == 1
        (run_end,) = records_of("run_end", records)
        assert run_end["finished"] == n
        assert run_end["makespan"] == result.makespan

    def test_events_carry_scheduler_and_ordering(self, run_table1):
        _, records, _ = run_table1
        assert all(r["scheduler"] == "TOPO-AWARE-P" for r in records)
        assert [r["seq"] for r in records] == sorted(r["seq"] for r in records)
        times = [r["t"] for r in records]
        assert times == sorted(times)

    def test_place_events_expose_placement_facts(self, run_table1):
        _, records, result = run_table1
        by_job = {
            r["job_id"]: r for r in records_of("job", records)
            if r["state"] == "RUNNING"
        }
        for record in result.records:
            placed = by_job[record.job.job_id]
            assert placed["gpus"] == sorted(record.gpus)
            assert placed["utility"] == pytest.approx(record.utility)
            assert placed["p2p"] == record.p2p
            assert placed["postponements"] == record.postponements

    def test_slo_misses_marked_on_the_place_record(self):
        """The old ``slo_violation`` event survives as a mark on the
        RUNNING record, for every policy (BF writes no decisions)."""
        registry = MetricsRegistry()
        observer = TelemetryObserver(registry, scheduler="BF")
        recorder = DecisionRecorder(journal=True)
        result = run_with_observers(
            power8_minsky(),
            make_scheduler("BF"),
            table1_jobs(),
            observers=(observer, recorder),
        )
        records = journal_records(recorder)
        assert not records_of("decision", records)
        missed = [
            r for r in records_of("job", records) if r.get("slo_violation")
        ]
        assert missed, "BF must miss an SLO on this trace"
        assert len(missed) == registry.get("repro_slo_violations_total").value(
            scheduler="BF"
        )
        by_id = {r.job.job_id: r for r in result.records}
        for mark in missed:
            job = by_id[mark["job_id"]].job
            assert mark["state"] == "RUNNING"
            assert mark["min_utility"] == job.min_utility
            assert mark["utility"] < job.min_utility


class TestFailuresAndRequeues:
    def test_failure_victims_requeued_and_counted(self):
        registry = MetricsRegistry()
        observer = TelemetryObserver(registry, scheduler="TOPO-AWARE")
        recorder = DecisionRecorder(journal=True)
        run_with_observers(
            power8_minsky(),
            make_scheduler("TOPO-AWARE"),
            table1_jobs(),
            observers=(observer, recorder),
            failures=[MachineFailure(machine="m0", at_time=40.0, duration_s=5.0)],
        )
        labels = {"scheduler": "TOPO-AWARE"}
        assert registry.get("repro_machine_failures_total").value(**labels) == 1
        requeued = registry.get("repro_jobs_requeued_total").value(**labels)
        assert requeued >= 1
        records = journal_records(recorder)
        restarts = [r for r in records_of("job", records) if r.get("restart")]
        assert len(restarts) == requeued
        (failure,) = records_of("failure", records)
        assert failure["machine"] == "m0"
        assert sorted(failure["victims"]) == sorted(r["job_id"] for r in restarts)


class TestPostponementBookkeeping:
    def test_per_job_maps_hold_live_jobs_only(self):
        """Both per-job postponement maps drop a job at its terminal
        hook, while the counts they feed still cover the whole run."""
        registry = MetricsRegistry()
        telemetry = TelemetryObserver(registry, scheduler="TOPO-AWARE-P")
        watchdog = Watchdog(registry, scheduler="TOPO-AWARE-P")
        result = run_with_observers(
            cluster(3),
            make_scheduler("TOPO-AWARE-P"),
            scenario1_jobs(80, seed=42),
            observers=(telemetry, watchdog),
        )
        expected = sum(r.postponements for r in result.records)
        assert expected > 0, "scenario must postpone"
        assert registry.get("repro_job_postponements_total").value(
            scheduler="TOPO-AWARE-P"
        ) == expected
        assert watchdog.signals(0)["postponements_total"] == expected
        assert telemetry._postponements_seen == {}


class TestTapOnly:
    def test_attaching_telemetry_does_not_change_results(self):
        bare = run_with_observers(
            power8_minsky(), make_scheduler("TOPO-AWARE-P"), table1_jobs()
        )
        observer = TelemetryObserver(
            MetricsRegistry(), scheduler="TOPO-AWARE-P"
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
