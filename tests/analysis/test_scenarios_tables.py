"""Tests for scenario definitions and table formatting."""

from repro.analysis.scenarios import scenario1_jobs, scenario2_jobs, table1_jobs
from repro.analysis.tables import (
    format_breakdown_table,
    format_collocation_table,
    format_speedup_table,
    format_timeline,
)
from repro.analysis.figures import fig3_breakdown, fig4_pack_vs_spread, fig6_collocation
from repro.workload.job import BatchClass, ModelType


class TestTable1:
    def test_matches_paper_configuration(self):
        jobs = table1_jobs()
        assert [j.model for j in jobs] == [
            ModelType.ALEXNET,
            ModelType.GOOGLENET,
            ModelType.ALEXNET,
            ModelType.ALEXNET,
            ModelType.ALEXNET,
            ModelType.CAFFEREF,
        ]
        assert [j.batch_size for j in jobs] == [1, 4, 1, 4, 1, 1]
        assert [j.num_gpus for j in jobs] == [1, 1, 1, 2, 2, 2]
        assert [j.min_utility for j in jobs] == [0.3, 0.3, 0.3, 0.5, 0.5, 0.5]
        assert [j.arrival_time for j in jobs] == [
            0.51, 15.03, 24.36, 25.33, 29.33, 29.89,
        ]

    def test_ids_are_stable(self):
        assert [j.job_id for j in table1_jobs()] == [f"job{i}" for i in range(6)]


class TestScenarioWorkloads:
    def test_scenario1_size_and_determinism(self):
        a = scenario1_jobs(50, seed=1)
        b = scenario1_jobs(50, seed=1)
        assert a == b and len(a) == 50

    def test_scenario2_rate_scales_with_machines(self):
        small = scenario2_jobs(500, n_machines=10, seed=0)
        large = scenario2_jobs(500, n_machines=100, seed=0)
        # same job count in less wall-clock time on the bigger cluster
        assert large[-1].arrival_time < small[-1].arrival_time

    def test_scenario_jobs_fit_machines(self):
        for j in scenario1_jobs(100, seed=2):
            assert j.num_gpus <= 4  # fits a Minsky machine


class TestFormatting:
    def test_speedup_table_mentions_models(self):
        text = format_speedup_table(fig4_pack_vs_spread(batch_sizes=(1, 8)))
        assert "alexnet" in text and "googlenet" in text

    def test_breakdown_table_complete(self):
        text = format_breakdown_table(fig3_breakdown())
        assert text.count("\n") == len(ModelType) * len(BatchClass) * 2
        assert "comm%" in text

    def test_collocation_table_square(self):
        text = format_collocation_table(fig6_collocation())
        assert text.count("\n") == len(BatchClass)

    def test_timeline_renders_placements(self):
        from repro.analysis.figures import fig8_prototype

        results = fig8_prototype()
        text = format_timeline(results["TOPO-AWARE-P"])
        assert "job3" in text and "p2p" in text
