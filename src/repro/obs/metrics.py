"""Labelled metric instruments and the registry that owns them.

A deliberately small, dependency-free re-implementation of the
Prometheus client-library data model (the container image bakes no
``prometheus_client``):

* :class:`Counter` — monotonically increasing totals;
* :class:`Gauge` — instantaneous values that move both ways;
* :class:`Histogram` — cumulative-bucket distributions with ``_sum``
  and ``_count`` series, the shape scrape-side tooling expects;
* :class:`MetricsRegistry` — the namespace instruments register into
  and exporters (:mod:`repro.obs.export`) walk.

Instruments are cheap to update (a dict lookup + float add) so the
:class:`~repro.obs.telemetry.TelemetryObserver` can drive them from
every simulation event without perturbing the run.  Label values are
free-form strings; each distinct label combination materialises one
time series, exactly like the Prometheus exposition model.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: default latency buckets (seconds), tuned for scheduler decisions
#: that range from microseconds (greedy policies, empty queues) to the
#: paper's ~3 s topology-aware evaluations.
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _check_labelnames(labelnames: Sequence[str]) -> tuple[str, ...]:
    names = tuple(labelnames)
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate label names {names}")
    for label in names:
        if not _LABEL_RE.match(label) or label.startswith("__"):
            raise ValueError(f"invalid label name {label!r}")
    return names


class _Instrument:
    """Shared machinery: name, help text, per-label-combination series."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        self.name = _check_name(name)
        self.help = help
        self.labelnames = _check_labelnames(labelnames)
        # label-value tuple -> series state (float or bucket list)
        self._series: dict[tuple[str, ...], object] = {}

    def _key(self, labels: Mapping[str, str]) -> tuple[str, ...]:
        # fast path: as many labels as declared and every declared one
        # present means the key sets are equal (declared names are
        # unique), so no set needs building
        names = self.labelnames
        n = len(names)
        if len(labels) == n:
            try:
                if n == 1:
                    return (str(labels[names[0]]),)
                return tuple([str(labels[name]) for name in names])
            except KeyError:
                pass
        raise ValueError(
            f"{self.name}: got labels {sorted(labels)}, "
            f"declared {sorted(names)}"
        )

    def samples(self) -> Iterable[tuple[str, tuple[tuple[str, str], ...], float]]:
        """Yield ``(series_name, ((label, value), ...), value)`` rows."""
        raise NotImplementedError


class Counter(_Instrument):
    """Monotonic total; by convention the name ends in ``_total``."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: counters cannot decrease ({amount})")
        key = self._key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        return float(self._series.get(self._key(labels), 0.0))

    def samples(self):
        for key in sorted(self._series):
            yield self.name, tuple(zip(self.labelnames, key)), self._series[key]


class Gauge(_Instrument):
    """Instantaneous value (queue depth, busy GPUs, utilization)."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        self._series[self._key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = self._key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        return float(self._series.get(self._key(labels), 0.0))

    def samples(self):
        for key in sorted(self._series):
            yield self.name, tuple(zip(self.labelnames, key)), self._series[key]


class _HistogramSeries:
    """Per-bucket (not cumulative) counts: slot ``i`` counts the values
    whose first covering bound is ``buckets[i]``; the last slot counts
    the ones only ``+Inf`` covers (NaN included)."""

    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * (n_buckets + 1)
        self.sum = 0.0
        self.count = 0

    def cumulative(self) -> list[int]:
        """Cumulative count of each finite bucket (Prometheus ``le``)."""
        return list(accumulate(self.counts[:-1]))


class Histogram(_Instrument):
    """Cumulative-bucket distribution (Prometheus histogram semantics)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"{name}: need at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"{name}: bucket bounds must be strictly increasing")
        if math.isinf(bounds[-1]):
            bounds = bounds[:-1]  # +Inf is implicit
        self.buckets = bounds

    def observe(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.buckets))
        # the first bound >= value; NaN compares false with every bound
        # (bisect would put it first), so it counts under +Inf only
        slot = (
            bisect_left(self.buckets, value) if value == value
            else len(self.buckets)
        )
        series.counts[slot] += 1
        series.sum += value
        series.count += 1

    def count(self, **labels: str) -> int:
        series = self._series.get(self._key(labels))
        return series.count if series is not None else 0

    def quantile(self, q: float, **labels: str) -> float:
        """Bucket-based quantile estimate (Prometheus semantics).

        Finds the first bucket whose cumulative count covers the
        ``q``-th observation and linearly interpolates within it.  Like
        ``histogram_quantile``, the first bucket's lower edge is taken
        as 0 (or its bound, when that bound is negative), and targets
        falling in the implicit ``+Inf`` bucket clamp to the highest
        finite bound.  Returns ``nan`` for an empty series so callers
        (the SLO watchdog) can treat "no data yet" as "no violation".
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"{self.name}: quantile {q} outside [0, 1]")
        series = self._series.get(self._key(labels))
        if series is None or series.count == 0:
            return math.nan
        target = q * series.count
        cumulative = series.cumulative()
        for i, bound in enumerate(self.buckets):
            cum = cumulative[i]
            if cum >= target:
                lower_cum = cumulative[i - 1] if i > 0 else 0
                if cum == lower_cum:
                    # target rounds onto the bucket edge (q == running
                    # fraction exactly); the value is at the lower edge
                    continue
                lower = self.buckets[i - 1] if i > 0 else min(0.0, bound)
                return lower + (bound - lower) * (target - lower_cum) / (
                    cum - lower_cum
                )
        return self.buckets[-1]

    def sum(self, **labels: str) -> float:
        series = self._series.get(self._key(labels))
        return series.sum if series is not None else 0.0

    def samples(self):
        for key in sorted(self._series):
            series = self._series[key]
            base = tuple(zip(self.labelnames, key))
            for bound, in_bucket in zip(self.buckets, series.cumulative()):
                yield (
                    f"{self.name}_bucket",
                    base + (("le", _format_bound(bound)),),
                    float(in_bucket),
                )
            yield f"{self.name}_bucket", base + (("le", "+Inf"),), float(series.count)
            yield f"{self.name}_sum", base, series.sum
            yield f"{self.name}_count", base, float(series.count)


def _format_bound(bound: float) -> str:
    """Render a bucket bound the way Prometheus clients do (no trailing
    noise: 0.5 not 0.50000)."""
    if bound == int(bound):
        return f"{bound:.1f}"
    return repr(bound)


class MetricsRegistry:
    """Namespace of instruments; the unit exporters serialise.

    ``counter``/``gauge``/``histogram`` create-or-get: asking twice for
    the same name returns the same instrument, but redeclaring it with
    a different type or label set is an error (mirrors the Prometheus
    client's duplicate-registration guard).
    """

    def __init__(self) -> None:
        self._instruments: dict[str, _Instrument] = {}

    def _register(self, cls, name: str, help: str, labelnames, **kwargs):
        existing = self._instruments.get(name)
        if existing is not None:
            if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}{existing.labelnames}"
                )
            return existing
        instrument = cls(name, help, labelnames, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str, labelnames: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str, labelnames: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram, name, help, labelnames, buckets=buckets)

    def get(self, name: str) -> _Instrument:
        return self._instruments[name]

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def collect(self) -> list[_Instrument]:
        """All instruments in registration order (exporter input)."""
        return list(self._instruments.values())
