"""Tests for the Gantt chart renderer and utility timeline."""

import numpy as np
import pytest

from repro.analysis.figures import fig8_prototype
from repro.analysis.gantt import gantt_chart, utility_timeline
from repro.sim.engine import JobRecord, SimulationResult

from tests.conftest import make_job


@pytest.fixture(scope="module")
def fig8_results():
    return fig8_prototype()


class TestGantt:
    def test_renders_all_gpus_and_jobs(self, fig8_results):
        chart = gantt_chart(fig8_results["TOPO-AWARE-P"])
        lines = chart.splitlines()
        assert lines[0].startswith("[TOPO-AWARE-P]")
        gpu_rows = [ln for ln in lines if ln.startswith("m0/gpu")]
        assert len(gpu_rows) == 4
        assert "legend:" in lines[-1]
        for i in range(6):
            assert f"{i}=job{i}" in lines[-1]

    def test_occupancy_matches_records(self, fig8_results):
        result = fig8_results["TOPO-AWARE-P"]
        chart = gantt_chart(result, width=50)
        rows = {
            ln.split(" |")[0].strip(): ln.split("|")[1]
            for ln in chart.splitlines()
            if ln.startswith("m0/gpu")
        }
        # job0 ran on gpu0 from the very start
        assert rows["m0/gpu0"][0] == "0"
        # every placed job's symbol appears somewhere
        for i, rec in enumerate(result.records):
            assert str(i) in "".join(rows.values())

    def test_idle_gpus_are_dots(self):
        rec = JobRecord(
            job=make_job("a", num_gpus=1),
            arrival=0.0,
            placed_at=0.0,
            finished_at=10.0,
            gpus=("m0/gpu0",),
            utility=1.0,
            ideal_exec_time=10.0,
        )
        result = SimulationResult("X", [rec], 10.0, 0.0, 1)
        chart = gantt_chart(result, width=10, gpus=["m0/gpu0", "m0/gpu1"])
        rows = chart.splitlines()
        assert set(rows[2].split("|")[1]) == {"."}

    def test_empty_result(self):
        result = SimulationResult("X", [], 0.0, 0.0, 0)
        assert "nothing was placed" in gantt_chart(result)

    def test_width_validation(self, fig8_results):
        with pytest.raises(ValueError):
            gantt_chart(fig8_results["BF"], width=5)


class TestUtilityTimeline:
    def test_mean_utility_within_bounds(self, fig8_results):
        times, means = utility_timeline(fig8_results["TOPO-AWARE-P"].records)
        valid = means[~np.isnan(means)]
        assert len(valid) > 0
        assert np.all(valid >= 0.0) and np.all(valid <= 1.0)

    def test_gaps_are_nan(self):
        rec = JobRecord(
            job=make_job("a", num_gpus=1),
            arrival=50.0,
            placed_at=50.0,
            finished_at=60.0,
            gpus=("m0/gpu0",),
            utility=0.8,
            ideal_exec_time=10.0,
        )
        times, means = utility_timeline([rec], n_samples=61)
        assert np.isnan(means[0])  # nothing ran at t=0
        assert means[52] == pytest.approx(0.8)

    def test_topo_mean_utility_beats_greedy(self, fig8_results):
        """Figure 9's qualitative claim: the topology-aware policies
        sustain higher mean job utility."""
        def overall(records):
            _, means = utility_timeline(records)
            return float(np.nanmean(means))

        assert overall(fig8_results["TOPO-AWARE-P"].records) > overall(
            fig8_results["BF"].records
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            utility_timeline([], n_samples=1)


class TestGanttObserver:
    """Live observer output matches the post-hoc record rendering."""

    def test_live_chart_matches_record_chart(self):
        from repro.analysis.gantt import GanttObserver
        from repro.analysis.scenarios import table1_jobs
        from repro.schedulers import make_scheduler
        from repro.sim.runner import run_with_observers
        from repro.topology.builders import power8_minsky

        observer = GanttObserver("TOPO-AWARE")
        result = run_with_observers(
            power8_minsky(),
            make_scheduler("TOPO-AWARE"),
            table1_jobs(),
            observers=[observer],
        )
        assert observer.chart() == gantt_chart(result)

    def test_failure_splits_span(self):
        from repro.analysis.gantt import GanttObserver
        from repro.schedulers import make_scheduler
        from repro.sim.engine import MachineFailure
        from repro.sim.runner import run_with_observers
        from repro.topology.builders import power8_minsky

        observer = GanttObserver()
        run_with_observers(
            power8_minsky(),
            make_scheduler("FCFS"),
            [make_job("victim", num_gpus=2, iterations=2000, arrival_time=0.0)],
            failures=[MachineFailure("m0", at_time=5.0, duration_s=10.0)],
            observers=[observer],
        )
        spans = [s for s in observer.spans if s.job_id == "victim"]
        assert len(spans) == 2  # pre-failure segment + restart segment
        assert spans[0].end == pytest.approx(5.0)
        assert spans[1].start >= 15.0
