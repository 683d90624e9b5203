"""Tests for the parameter-sweep harness."""

import math

import pytest

from repro.analysis.sweep import (
    format_sweep,
    mean_qos_metric,
    mean_wait_metric,
    series,
    sweep,
    violations_metric,
)
from repro.topology.builders import cluster
from repro.workload.generator import GeneratorConfig, WorkloadGenerator


def tiny_scenario(rate: float):
    cfg = GeneratorConfig(arrival_rate_per_min=rate)
    jobs = WorkloadGenerator(cfg, seed=8).generate(12)
    return (lambda: cluster(2)), jobs


@pytest.fixture(scope="module")
def points():
    return sweep((2.0, 6.0), tiny_scenario, schedulers=("BF", "TOPO-AWARE-P"))


class TestSweep:
    def test_one_point_per_value(self, points):
        assert [p.value for p in points] == [2.0, 6.0]

    def test_each_point_has_all_schedulers(self, points):
        for p in points:
            assert set(p.results) == {"BF", "TOPO-AWARE-P"}

    def test_series_shapes(self, points):
        qos = series(points, mean_qos_metric)
        assert set(qos) == {"BF", "TOPO-AWARE-P"}
        assert all(len(v) == 2 for v in qos.values())
        assert all(not math.isnan(x) for v in qos.values() for x in v)

    def test_metric_accessor(self, points):
        p = points[0]
        assert p.metric("BF", mean_wait_metric) >= 0.0
        assert p.metric("BF", violations_metric) >= 0.0

    def test_format_contains_values_and_names(self, points):
        text = format_sweep(points, mean_qos_metric, knob_name="rate")
        assert "rate" in text and "TOPO-AWARE-P" in text
        assert "2.00" in text and "6.00" in text

    def test_empty_series(self):
        assert series([], mean_qos_metric) == {}
