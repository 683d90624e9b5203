"""Trace analytics: Chrome export validity and the critical-path profiler."""

import json

import pytest

from repro.analysis.scenarios import table1_jobs
from repro.obs.profile import (
    format_profile,
    profile_spans,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.provenance import DecisionRecorder, read_records, records_of
from repro.obs.trace import SpanRecorder, recording
from repro.schedulers import make_scheduler
from repro.sim.runner import run_with_observers
from repro.topology.builders import dgx2, power8_minsky
from repro.workload.job import Job, ModelType


def make_recorder():
    """Deterministic recorder: each clock read advances 1 ms."""
    t = iter(range(10_000))
    return SpanRecorder(clock=lambda: next(t) * 1e-3)


def synthetic_spans():
    """propose -> (drb.map -> fm.bipartition, utility.score) twice."""
    rec = make_recorder()
    for jid in ("job0", "job1"):
        with rec.span("sched.propose", job_id=jid, outcome="place") as root:
            with rec.span("drb.map", job_id=jid):
                with rec.span("fm.bipartition", cut=2.0):
                    pass
            with rec.span("utility.score", utility=0.9):
                pass
            root.set(utility=0.9)
    return [s.to_dict() for s in rec.spans]


@pytest.fixture(scope="module")
def scenario_spans():
    """Spans from a real run so trace points and profiler agree."""
    with recording() as rec:
        run_with_observers(
            power8_minsky(), make_scheduler("TOPO-AWARE"), table1_jobs()
        )
    return [s.to_dict() for s in rec.spans]


class TestChromeExport:
    def test_required_keys_and_types(self):
        doc = to_chrome_trace(synthetic_spans())
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        meta, *events = doc["traceEvents"]
        assert meta["ph"] == "M" and meta["name"] == "thread_name"
        for ev in events:
            assert ev["ph"] == "X"
            for key in ("name", "cat", "ts", "dur", "pid", "tid", "args"):
                assert key in ev
            assert ev["dur"] >= 0.0

    def test_timestamps_monotonic_and_microseconds(self):
        doc = to_chrome_trace(synthetic_spans())
        stamps = [ev["ts"] for ev in doc["traceEvents"] if ev["ph"] == "X"]
        assert stamps == sorted(stamps)
        # recorder ticks 1 ms apart (t0 eats the first tick) -> exported
        # ts in whole microseconds
        assert stamps[0] == pytest.approx(1000.0)
        assert stamps[1] == pytest.approx(2000.0)

    def test_category_is_dotted_prefix_and_args_carry_attrs(self):
        doc = to_chrome_trace(synthetic_spans())
        by_name = {}
        for ev in doc["traceEvents"]:
            if ev["ph"] == "X":
                by_name.setdefault(ev["name"], ev)
        assert by_name["fm.bipartition"]["cat"] == "fm"
        assert by_name["fm.bipartition"]["args"] == {"cut": 2.0}
        assert by_name["sched.propose"]["cat"] == "sched"
        assert by_name["sched.propose"]["args"]["job_id"] == "job0"

    def test_write_round_trips_as_json(self, tmp_path):
        out = write_chrome_trace(synthetic_spans(), tmp_path / "t.chrome.json")
        doc = json.loads(out.read_text())
        assert doc["otherData"]["spans"] == 8
        assert len(doc["traceEvents"]) == 9  # metadata + 8 spans

    def test_each_policy_gets_its_own_process(self):
        """A compare journal's policies restart span ids and clocks, so
        their spans must not share a timeline."""
        runs = {
            name: [dict(s, scheduler=name) for s in synthetic_spans()]
            for name in ("BF", "TOPO-AWARE")
        }
        doc = to_chrome_trace(runs["BF"] + runs["TOPO-AWARE"])
        meta = [ev for ev in doc["traceEvents"] if ev["ph"] == "M"]
        assert [(ev["pid"], ev["args"]["name"]) for ev in meta] == [
            (1, "BF decision path"), (2, "TOPO-AWARE decision path")
        ]
        for pid in (1, 2):
            stamps = [
                ev["ts"] for ev in doc["traceEvents"]
                if ev["ph"] == "X" and ev["pid"] == pid
            ]
            assert len(stamps) == 8 and stamps == sorted(stamps)

    def test_empty_trace_exports_metadata_only(self):
        doc = to_chrome_trace([])
        assert len(doc["traceEvents"]) == 1
        assert doc["otherData"]["spans"] == 0

    def test_real_scenario_trace_exports_cleanly(self, scenario_spans):
        doc = to_chrome_trace(scenario_spans)
        stamps = [ev["ts"] for ev in doc["traceEvents"] if ev["ph"] == "X"]
        assert stamps == sorted(stamps)
        assert len(stamps) == len(scenario_spans)


class TestProfiler:
    def test_phase_table_self_vs_total(self):
        profile = profile_spans(synthetic_spans())
        phases = {p.name: p for p in profile.phases}
        propose = phases["sched.propose"]
        assert propose.count == 2
        # self time excludes the two direct children per round
        assert propose.self_s < propose.total_s
        leaf = phases["fm.bipartition"]
        assert leaf.self_s == pytest.approx(leaf.total_s)
        # table sorted by total, descending
        totals = [p.total_s for p in profile.phases]
        assert totals == sorted(totals, reverse=True)

    def test_rounds_and_critical_path(self):
        profile = profile_spans(synthetic_spans())
        assert [r.job_id for r in profile.rounds] == ["job0", "job1"]
        path = profile.rounds[0].critical_path
        assert path[0][0] == "sched.propose"
        # the drb.map subtree (2 spans) outweighs utility.score (1 span)
        assert [name for name, _ in path] == [
            "sched.propose", "drb.map", "fm.bipartition",
        ]
        assert profile.rounds[0].outcome == "place"

    def test_job_filter_narrows_rounds_not_phases(self):
        whole = profile_spans(synthetic_spans())
        one = profile_spans(synthetic_spans(), job_id="job1")
        assert [r.job_id for r in one.rounds] == ["job1"]
        assert one.per_job_s.keys() == {"job1"}
        assert len(one.phases) == len(whole.phases)  # table stays global

    def test_slowest_rounds_orders_by_duration(self, scenario_spans):
        profile = profile_spans(scenario_spans)
        slowest = profile.slowest_rounds(3)
        durs = [r.dur_s for r in slowest]
        assert durs == sorted(durs, reverse=True)

    def test_real_scenario_has_expected_phases(self, scenario_spans):
        profile = profile_spans(scenario_spans)
        names = {p.name for p in profile.phases}
        assert "sched.propose" in names
        assert any(n.startswith("drb.") for n in names)
        assert any(n.startswith("utility.") for n in names)
        assert profile.per_job_s  # every table-1 job decided at least once

    def test_fm_phase_on_flat_mesh_topology(self):
        # FM only runs when a pool has no structural boundary left to
        # cut along; DGX-2's 16-GPU NVSwitch mesh is exactly that case
        jobs = [
            Job(f"job{i}", ModelType.GOOGLENET, 4, g, arrival_time=float(i))
            for i, g in enumerate((3, 5, 6))
        ]
        with recording() as rec:
            run_with_observers(dgx2(), make_scheduler("TOPO-AWARE"), jobs)
        profile = profile_spans([s.to_dict() for s in rec.spans])
        fm = [p for p in profile.phases if p.name == "fm.bipartition"]
        assert fm and fm[0].count > 0

    def test_round_trip_through_jsonl(self, tmp_path):
        rec = DecisionRecorder(journal=True)
        with rec.span("sched.propose", job_id="job0", outcome="place"):
            with rec.span("drb.map", job_id="job0"):
                pass
        path = rec.write_journal(tmp_path / "records.jsonl")
        profile = profile_spans(records_of("span", read_records(path)))
        assert profile.span_count == 2
        assert profile.rounds[0].critical_path[-1][0] == "drb.map"


class TestFormatProfile:
    def test_empty_trace_message(self):
        assert format_profile(profile_spans([])) == "(empty trace: no spans)"

    def test_renders_all_sections(self):
        text = format_profile(profile_spans(synthetic_spans()), top=5)
        assert "per-phase aggregate" in text
        assert "slowest decision rounds" in text
        assert "jobs by total decision time" in text
        assert "critical path: sched.propose" in text
