"""Unit tests for the metric instruments and registry."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.export import render_json, render_prometheus
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    _format_bound,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("jobs_total", "jobs", ("scheduler",))
        assert c.value(scheduler="FCFS") == 0.0
        c.inc(scheduler="FCFS")
        c.inc(2.5, scheduler="FCFS")
        assert c.value(scheduler="FCFS") == 3.5

    def test_label_combinations_are_independent_series(self):
        c = Counter("jobs_total", "jobs", ("scheduler",))
        c.inc(scheduler="FCFS")
        c.inc(3, scheduler="BF")
        assert c.value(scheduler="FCFS") == 1.0
        assert c.value(scheduler="BF") == 3.0
        assert len(list(c.samples())) == 2

    def test_rejects_decrease(self):
        c = Counter("jobs_total", "jobs")
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)

    def test_rejects_wrong_labels(self):
        c = Counter("jobs_total", "jobs", ("scheduler",))
        with pytest.raises(ValueError, match="labels"):
            c.inc()
        with pytest.raises(ValueError, match="labels"):
            c.inc(scheduler="FCFS", extra="x")

    def test_rejects_invalid_names(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            Counter("0bad", "x")
        with pytest.raises(ValueError, match="invalid label name"):
            Counter("ok_total", "x", ("0bad",))
        with pytest.raises(ValueError, match="invalid label name"):
            Counter("ok_total", "x", ("__reserved",))


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("queue_depth", "depth")
        g.set(5)
        g.inc(2)
        g.dec()
        assert g.value() == 6.0


class TestHistogram:
    def test_cumulative_buckets_sum_count(self):
        h = Histogram("lat", "latency", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        samples = {
            (name, labels): value for name, labels, value in h.samples()
        }
        assert samples[("lat_bucket", (("le", "0.1"),))] == 1
        assert samples[("lat_bucket", (("le", "1.0"),))] == 3
        assert samples[("lat_bucket", (("le", "10.0"),))] == 4
        assert samples[("lat_bucket", (("le", "+Inf"),))] == 5
        assert samples[("lat_count", ())] == 5
        assert samples[("lat_sum", ())] == pytest.approx(56.05)

    def test_boundary_value_lands_in_its_bucket(self):
        h = Histogram("lat", "latency", buckets=(1.0,))
        h.observe(1.0)  # le is inclusive
        samples = {
            (name, labels): value for name, labels, value in h.samples()
        }
        assert samples[("lat_bucket", (("le", "1.0"),))] == 1
        assert h.count() == 1

    def test_explicit_inf_bucket_is_absorbed(self):
        h = Histogram("lat", "latency", buckets=(1.0, math.inf))
        assert h.buckets == (1.0,)

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError, match="increasing"):
            Histogram("lat", "latency", buckets=(1.0, 0.5))


class TestRegistry:
    def test_create_or_get_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("jobs_total", "jobs", ("scheduler",))
        b = reg.counter("jobs_total", "jobs", ("scheduler",))
        assert a is b
        assert len(reg.collect()) == 1

    def test_redeclare_with_other_type_fails(self):
        reg = MetricsRegistry()
        reg.counter("jobs_total", "jobs")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("jobs_total", "jobs")

    def test_redeclare_with_other_labels_fails(self):
        reg = MetricsRegistry()
        reg.counter("jobs_total", "jobs", ("scheduler",))
        with pytest.raises(ValueError, match="already registered"):
            reg.counter("jobs_total", "jobs", ("machine",))

    def test_collect_preserves_registration_order(self):
        reg = MetricsRegistry()
        reg.counter("b_total", "b")
        reg.gauge("a", "a")
        assert [i.name for i in reg.collect()] == ["b_total", "a"]


class TestQuantile:
    def make(self):
        h = Histogram("lat", "latency", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0):
            h.observe(v)
        return h

    def test_linear_interpolation_inside_bucket(self):
        h = self.make()
        # p50 -> target rank 2 of 4: one obs <= 1.0, three <= 2.0, so
        # halfway through the (1.0, 2.0] bucket
        assert h.quantile(0.5) == pytest.approx(1.5)
        # p25 -> rank 1: exactly the first bucket's upper bound
        assert h.quantile(0.25) == pytest.approx(1.0)

    def test_first_bucket_interpolates_from_zero(self):
        h = Histogram("lat", "latency", buckets=(1.0, 2.0))
        h.observe(0.2)
        h.observe(0.4)
        # both observations in [0, 1.0]: p50 lands mid-bucket
        assert h.quantile(0.5) == pytest.approx(0.5)

    def test_inf_bucket_clamps_to_highest_finite_bound(self):
        h = self.make()
        h.observe(100.0)  # falls in the +Inf bucket
        assert h.quantile(1.0) == 4.0

    def test_empty_series_is_nan(self):
        h = Histogram("lat", "latency", buckets=(1.0,))
        assert math.isnan(h.quantile(0.95))

    def test_unknown_labels_are_nan(self):
        h = Histogram("lat", "latency", ("scheduler",), buckets=(1.0,))
        h.observe(0.5, scheduler="FCFS")
        assert math.isnan(h.quantile(0.5, scheduler="BF"))
        assert h.quantile(0.5, scheduler="FCFS") == pytest.approx(0.5)

    def test_rejects_out_of_range_q(self):
        h = self.make()
        with pytest.raises(ValueError, match="outside"):
            h.quantile(1.5)
        with pytest.raises(ValueError, match="outside"):
            h.quantile(-0.1)

    def test_monotone_in_q(self):
        h = self.make()
        qs = [h.quantile(q / 10) for q in range(1, 11)]
        assert qs == sorted(qs)


# ----------------------------------------------------------------------
# the write fast paths against the straightforward reference
# ----------------------------------------------------------------------
def _reference_key(self, labels):
    """The label key as first written: two sets and a tuple per call."""
    if set(labels) != set(self.labelnames):
        raise ValueError(
            f"{self.name}: got labels {sorted(labels)}, "
            f"declared {sorted(self.labelnames)}"
        )
    return tuple(str(labels[name]) for name in self.labelnames)


class _ReferenceSeries:
    def __init__(self, n_buckets):
        self.bucket_counts = [0] * n_buckets  # cumulative
        self.sum = 0.0
        self.count = 0


class ReferenceCounter(Counter):
    _key = _reference_key


class ReferenceGauge(Gauge):
    _key = _reference_key


class ReferenceHistogram(Histogram):
    """Walks every bucket per observation and keeps cumulative counts."""

    _key = _reference_key

    def observe(self, value, **labels):
        key = self._key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _ReferenceSeries(len(self.buckets))
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                series.bucket_counts[i] += 1
        series.sum += value
        series.count += 1

    def quantile(self, q, **labels):
        series = self._series.get(self._key(labels))
        if series is None or series.count == 0:
            return math.nan
        target = q * series.count
        for i, bound in enumerate(self.buckets):
            cum = series.bucket_counts[i]
            if cum >= target:
                lower_cum = series.bucket_counts[i - 1] if i > 0 else 0
                if cum == lower_cum:
                    continue
                lower = self.buckets[i - 1] if i > 0 else min(0.0, bound)
                return lower + (bound - lower) * (target - lower_cum) / (
                    cum - lower_cum
                )
        return self.buckets[-1]

    def samples(self):
        for key in sorted(self._series):
            series = self._series[key]
            base = tuple(zip(self.labelnames, key))
            for bound, in_bucket in zip(self.buckets, series.bucket_counts):
                yield (
                    f"{self.name}_bucket",
                    base + (("le", _format_bound(bound)),),
                    float(in_bucket),
                )
            yield f"{self.name}_bucket", base + (("le", "+Inf"),), float(
                series.count
            )
            yield f"{self.name}_sum", base, series.sum
            yield f"{self.name}_count", base, float(series.count)


class ReferenceRegistry(MetricsRegistry):
    def counter(self, name, help, labelnames=()):
        return self._register(ReferenceCounter, name, help, labelnames)

    def gauge(self, name, help, labelnames=()):
        return self._register(ReferenceGauge, name, help, labelnames)

    def histogram(self, name, help, labelnames=(), buckets=(0.1, 1.0)):
        return self._register(
            ReferenceHistogram, name, help, labelnames, buckets=buckets
        )


#: values on, between and beyond the bucket bounds, NaN and infinities
EDGE_VALUES = (
    -math.inf, -1.0, -0.0, 0.0, 0.0001, 0.0001000001, 0.001, 0.0025,
    0.5, 1.0, 2.5, 5.0, 5.000001, 1e9, math.inf, math.nan,
)


def _drive(registry, values) -> None:
    ctr = registry.counter("c_total", "c", ("scheduler", "phase"))
    gauge = registry.gauge("g", "g", ("state",))
    hist = registry.histogram(
        "h_seconds", "h", ("scheduler", "kind"),
        buckets=(0.0001, 0.001, 0.0025, 0.5, 1.0, 5.0),
    )
    plain = registry.histogram("p_seconds", "p", buckets=(0.5, 1.0))
    for i, value in enumerate(values):
        # both keyword orders of the same label set, and int labels
        labels = (
            {"scheduler": "FCFS", "kind": i % 3}
            if i % 2 else {"kind": i % 3, "scheduler": "FCFS"}
        )
        hist.observe(value, **labels)
        plain.observe(value)
        ctr.inc(1.0, phase=str(i % 2), scheduler="TOPO")
        gauge.set(value if value == value else 0.0, state=f"s{i % 4}")


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _assert_identical(values) -> None:
    fast, ref = MetricsRegistry(), ReferenceRegistry()
    _drive(fast, values)
    _drive(ref, values)
    assert render_prometheus(fast) == render_prometheus(ref)
    assert render_json(fast) == render_json(ref)
    for name in ("h_seconds", "p_seconds"):
        f, r = fast.get(name), ref.get(name)
        labelsets = (
            [{"scheduler": "FCFS", "kind": k} for k in range(3)]
            if f.labelnames else [{}]
        )
        for labels in labelsets:
            for q in (0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0):
                assert _same(f.quantile(q, **labels), r.quantile(q, **labels))
            assert f.count(**labels) == r.count(**labels)
            assert _same(f.sum(**labels), r.sum(**labels))
    for phase in ("0", "1"):
        assert fast.get("c_total").value(scheduler="TOPO", phase=phase) == (
            ref.get("c_total").value(phase=phase, scheduler="TOPO")
        )
    for i in range(4):
        assert fast.get("g").value(state=f"s{i}") == (
            ref.get("g").value(state=f"s{i}")
        )


class TestWriteFastPaths:
    """``_key``'s fast path and the bisected per-bucket histogram counts
    leave every exposition byte and every read as they were."""

    def test_edge_values_render_identically(self):
        _assert_identical(EDGE_VALUES)
        _assert_identical(EDGE_VALUES[::-1] * 3)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True),
                    max_size=40))
    def test_any_values_render_identically(self, values):
        _assert_identical(values)

    def test_wrong_label_sets_still_raise(self):
        h = Histogram("h", "h", ("a", "b"), buckets=(1.0,))
        for labels in ({"a": 1}, {"a": 1, "c": 2}, {"a": 1, "b": 2, "c": 3}):
            with pytest.raises(ValueError, match="declared"):
                h.observe(0.5, **labels)
