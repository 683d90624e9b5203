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

from repro._lazy import lazy_exports

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

# every name resolves on first use (PEP 562).  The hot path imports
# only ``repro.obs.trace`` for its ``span()`` seam, and several homes
# below import repro.sim.hooks, whose chain reaches back into the
# repro.core modules that import that seam: eager imports here would
# load the exposition and profiling code into every simulation and
# close an import cycle.
__getattr__ = lazy_exports(__name__, {
    "repro.obs.export": (
        "parse_prometheus", "render_json", "render_prometheus",
        "sample_value", "write_metrics",
    ),
    "repro.obs.io": ("is_gzip_path", "open_text"),
    "repro.obs.metrics": (
        "DEFAULT_BUCKETS", "Counter", "Gauge", "Histogram", "MetricsRegistry",
    ),
    "repro.obs.profile": (
        "PhaseStats", "RoundProfile", "TraceProfile", "format_profile",
        "profile_spans", "to_chrome_trace", "write_chrome_trace",
    ),
    "repro.obs.trace": (
        "NULL_SPAN", "SpanRecorder", "install", "recording", "span",
        "summarize",
    ),
    "repro.obs.telemetry": ("TelemetryObserver",),
    "repro.obs.state": ("RunSnapshot", "SnapshotObserver", "SnapshotPublisher"),
    "repro.obs.server": ("IntrospectionServer",),
    "repro.obs.alerts": ("DEFAULT_RULES", "Rule", "Watchdog", "load_rules"),
    "repro.obs.provenance": (
        "DecisionRecorder", "PROVENANCE_SCHEMA_VERSION", "read_records",
        "validate_record",
    ),
    "repro.obs.timeseries": (
        "TIMESERIES_SCHEMA_VERSION", "TieredSeries", "TimeSeriesSampler",
        "TimeSeriesStore",
    ),
})
