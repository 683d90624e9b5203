"""Observability layer: metrics, one record stream, live endpoints.

The production-facing telemetry the ROADMAP's north star requires and
the evaluation used to recover post-hoc from ``JobRecord`` lists:

* :mod:`repro.obs.provenance` — the decision flight recorder, the
  program's one record stream: a schema-versioned "why" record per
  scheduling decision (candidate pools, per-term utility breakdown,
  SLO verdicts) plus job, round, failure, alert, run and span records,
  one reader (:func:`read_records`), and the ``--decisions-out``
  journal behind ``repro explain``, ``repro trace``, ``/decisions``,
  ``/explain/<id>`` and the ``/events`` SSE stream;
* :mod:`repro.obs.trace` — span tracer with no-op-by-default trace
  points inside the DRB/FM/utility hot path; the installed sink
  (a decision recorder, or an in-memory :class:`SpanRecorder`) keeps
  the closed spans;
* :mod:`repro.obs.metrics` — labelled Counter/Gauge/Histogram
  instruments in a :class:`MetricsRegistry`;
* :mod:`repro.obs.export` — Prometheus text-format and JSON
  exposition (plus a strict parser used for validation);
* :mod:`repro.obs.telemetry` — :class:`TelemetryObserver`, the bridge
  from simulation hooks into the registry;
* :mod:`repro.obs.state` — atomically-published immutable
  :class:`RunSnapshot` of the live run;
* :mod:`repro.obs.server` — the ``--serve`` introspection endpoint
  (``/metrics``, ``/healthz``, ``/state``, ``/alerts``);
* :mod:`repro.obs.profile` — Chrome Trace Event (Perfetto) export and
  the per-phase/critical-path profiler over span records;
* :mod:`repro.obs.alerts` — the declarative SLO watchdog (point-in-
  time and windowed rules with explicit NaN policies);
* :mod:`repro.obs.timeseries` — the in-process tiered ring-buffer
  time-series store and its sampling observer (cluster- and per-
  machine series behind ``/timeseries`` and ``/cluster``);
* :mod:`repro.obs.io` — tiny shared IO helpers (gzip-transparent
  ``open_text``).

Everything here is tap-only: attaching telemetry must never change
simulation results (enforced by the golden-equivalence tests) and the
disabled trace points stay within 3 % of the uninstrumented runtime
(enforced by ``benchmarks/test_obs_overhead.py``).
"""

from repro.obs.export import (
    parse_prometheus,
    render_json,
    render_prometheus,
    sample_value,
    write_metrics,
)
from repro.obs.io import is_gzip_path, open_text
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profile import (
    PhaseStats,
    RoundProfile,
    TraceProfile,
    format_profile,
    profile_spans,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.trace import (
    NULL_SPAN,
    SpanRecorder,
    install,
    recording,
    span,
    summarize,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_RULES",
    "DecisionRecorder",
    "Gauge",
    "Histogram",
    "IntrospectionServer",
    "MetricsRegistry",
    "NULL_SPAN",
    "PROVENANCE_SCHEMA_VERSION",
    "PhaseStats",
    "RoundProfile",
    "Rule",
    "RunSnapshot",
    "SnapshotObserver",
    "SnapshotPublisher",
    "SpanRecorder",
    "TIMESERIES_SCHEMA_VERSION",
    "TelemetryObserver",
    "TieredSeries",
    "TimeSeriesSampler",
    "TimeSeriesStore",
    "TraceProfile",
    "Watchdog",
    "format_profile",
    "install",
    "is_gzip_path",
    "load_rules",
    "open_text",
    "parse_prometheus",
    "profile_spans",
    "read_records",
    "recording",
    "render_json",
    "render_prometheus",
    "sample_value",
    "span",
    "summarize",
    "to_chrome_trace",
    "validate_record",
    "write_chrome_trace",
    "write_metrics",
]

#: lazily-resolved names -> home module.  These all pull in
#: repro.sim.hooks, whose import chain reaches back into repro.core.*
#: — the very modules that import this package for their trace points.
#: Loading them lazily keeps the hot-path import (repro.obs.trace)
#: cycle-free.
_LAZY = {
    "TelemetryObserver": "repro.obs.telemetry",
    "SnapshotObserver": "repro.obs.state",
    "SnapshotPublisher": "repro.obs.state",
    "RunSnapshot": "repro.obs.state",
    "IntrospectionServer": "repro.obs.server",
    "Watchdog": "repro.obs.alerts",
    "Rule": "repro.obs.alerts",
    "DEFAULT_RULES": "repro.obs.alerts",
    "load_rules": "repro.obs.alerts",
    "DecisionRecorder": "repro.obs.provenance",
    "PROVENANCE_SCHEMA_VERSION": "repro.obs.provenance",
    "read_records": "repro.obs.provenance",
    "validate_record": "repro.obs.provenance",
    "TimeSeriesStore": "repro.obs.timeseries",
    "TimeSeriesSampler": "repro.obs.timeseries",
    "TieredSeries": "repro.obs.timeseries",
    "TIMESERIES_SCHEMA_VERSION": "repro.obs.timeseries",
}


def __getattr__(name: str):
    home = _LAZY.get(name)
    if home is not None:
        import importlib

        return getattr(importlib.import_module(home), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
