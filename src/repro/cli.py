"""Command-line interface (the paper artifact's ``python main.py``).

Subcommands::

    repro run --config-dir DIR [--manifest FILE]   # prototype workflow
    repro simulate --jobs N --machines M --scheduler NAME [...]
    repro compare --jobs N --machines M [...]      # all four policies
    repro topo --machine NAME [--matrix | --numactl]
    repro figures [--out DIR]                      # regenerate evaluation
    repro serve [--port P --store FILE ...]        # scheduler service daemon
    repro top --url URL [--interval S]             # live terminal dashboard
    repro soak [--minutes N] [--url URL]           # burst-load soak harness
    repro submit MANIFEST --url URL                # POST jobs to a daemon
    repro cancel JOB_ID --url URL                  # cancel a submitted job
    repro status --url URL [--job ID]              # job table / one job
    repro replay [MANIFEST] --url URL              # drive a trace via the API
    repro trace summarize RECORDS.jsonl [--job ID] # decision timelines
    repro trace export RECORDS.jsonl [--out F]     # Perfetto/Chrome JSON
    repro trace profile RECORDS.jsonl [--top N]    # per-phase profiler
    repro explain job ID RECORDS.jsonl             # one job's whole story
    repro explain round N RECORDS.jsonl            # one round's decisions
    repro explain list RECORDS.jsonl               # journal index table

``simulate`` and ``compare`` accept two telemetry sinks —
``--metrics-out`` (Prometheus text, or JSON with a ``.json`` suffix)
and ``--decisions-out`` (the one record journal: decisions, job
lifecycle, rounds, failures, alerts, the run envelope and the
decision path's timing spans, fed to ``repro explain`` and ``repro
trace``, which render each policy's run of a ``compare`` journal
apart) — plus the live operational layer:
``--serve PORT`` starts the introspection endpoint (``/metrics``,
``/healthz``, ``/state``, ``/alerts``, and with ``--decisions-out``
also ``/decisions``, ``/explain/<id>`` and the ``/events`` SSE stream)
for the duration of the run, and ``--watchdog`` / ``--slo-rules FILE``
attach the SLO watchdog.  JSONL sinks and readers treat a ``.gz``
suffix as gzip transparently.  Telemetry is tap-only: results are
bit-identical with or without any of these flags (pinned by the
fast-path A/B equivalence tests).

A usage error (a missing or malformed input file, a bad ``--url``, an
unreachable daemon) prints one ``error:`` line and exits 2.

Everything is also available as a library; the CLI is a thin veneer
over :mod:`repro.prototype`, :mod:`repro.sim`, :mod:`repro.obs` and
:mod:`repro.analysis`.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import closing, contextmanager
from pathlib import Path

DEFAULT_URL = "http://127.0.0.1:8642"
#: the keys of ``repro.topology.builders.MACHINES``, spelled out so
#: building the parser imports no topology code (a test pins the two)
MACHINE_CHOICES = (
    "power8-minsky",
    "dgx1",
    "dgx2",
    "power8-pcie-k80",
    "power9-ac922",
)
SCHEDULER_CHOICES = (
    "FCFS",
    "BF",
    "SJF",
    "EASY-BACKFILL",
    "TOPO-AWARE",
    "TOPO-AWARE-P",
    "TOPO-AWARE-PM",
    "RANDOM",
)


class _UsageError(Exception):
    """An input the user can fix: ``main`` prints ``error: <message>``
    and exits 2, without a traceback."""


@contextmanager
def _usage_error_on(*errors: type[Exception]):
    """Turn ``errors`` raised inside the block into a :class:`_UsageError`."""
    try:
        yield
    except errors as exc:
        raise _UsageError(exc) from None


def _positive_int(text: str) -> int:
    """The argparse type of a size flag: a whole number of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        )
    return value


def _positive_rate(text: str) -> float:
    """The argparse type of a rate flag: a finite number above 0."""
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a positive finite number, got {text!r}"
        )
    return value


def _add_cluster_flags(p, scheduler: str | None = None) -> None:
    """``--machines``, ``--machine`` and, given its default, ``--scheduler``."""
    p.add_argument("--machines", type=_positive_int, default=5)
    p.add_argument("--machine", choices=MACHINE_CHOICES, default="power8-minsky")
    if scheduler is not None:
        p.add_argument("--scheduler", choices=SCHEDULER_CHOICES,
                       type=str.upper, default=scheduler)


def _add_workload_flags(p, jobs: bool = True) -> None:
    """The generated fig10-style workload: ``--jobs`` (optionally),
    ``--seed`` and ``--arrival-rate``."""
    if jobs:
        p.add_argument("--jobs", type=_positive_int, default=100,
                       help="generated-workload size")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--arrival-rate", type=_positive_rate, default=2.2,
                   help="jobs per minute (Poisson lambda)")


def _add_watchdog_flags(p, watchdog: bool = True) -> None:
    """``--watchdog`` (optionally) and ``--slo-rules``."""
    if watchdog:
        p.add_argument("--watchdog", action="store_true",
                       help="attach the SLO watchdog, evaluated at every "
                       "decision round (implied by --slo-rules)")
    p.add_argument("--slo-rules", type=Path, default=None, metavar="FILE",
                   help="JSON/TOML SLO watchdog rule file in place of the "
                   "default rules (supports windowed rules)")


def _add_journal_arg(p, dest: str) -> None:
    p.add_argument(dest, type=Path,
                   help="JSONL journal written by --decisions-out "
                   "(.gz read transparently)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Topology-aware GPU scheduling (SC'17 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the prototype from a config directory")
    run.add_argument("--config-dir", required=True, type=Path)
    run.add_argument("--manifest", type=Path, default=None)

    for name in ("simulate", "compare"):
        p = sub.add_parser(
            name,
            help=(
                "simulate one scheduler" if name == "simulate"
                else "compare all four schedulers"
            ),
        )
        _add_workload_flags(p)
        _add_cluster_flags(p, "TOPO-AWARE-P" if name == "simulate" else None)
        p.add_argument("--gantt", action="store_true",
                       help="also print a live-collected Gantt chart"
                       + (" per policy" if name == "compare" else ""))
        p.add_argument("--metrics-out", type=Path, default=None, metavar="FILE",
                       help="write metrics (Prometheus text; .json for JSON)")
        p.add_argument("--decisions-out", type=Path, default=None,
                       metavar="FILE",
                       help="journal every record (decisions, lifecycle, "
                       "rounds, alerts, timing spans) as JSONL, for "
                       "`repro explain` and `repro trace`; .gz compresses")
        p.add_argument("--serve", type=int, default=None, metavar="PORT",
                       help="serve live introspection endpoints "
                       "(/metrics /healthz /state /alerts) on this port "
                       "(0 picks a free port)")
        p.add_argument("--serve-linger", type=float, default=0.0,
                       metavar="SECONDS",
                       help="keep the introspection server up this long "
                       "after the run finishes (scrape window)")
        _add_watchdog_flags(p)

    topo = sub.add_parser("topo", help="print a machine topology")
    topo.add_argument("--machine", choices=MACHINE_CHOICES, default="power8-minsky")
    group = topo.add_mutually_exclusive_group()
    group.add_argument("--matrix", action="store_true",
                       help="nvidia-smi topo --matrix format")
    group.add_argument("--numactl", action="store_true",
                       help="numactl --hardware format")

    figures = sub.add_parser("figures", help="regenerate the paper's evaluation")
    figures.add_argument("--out", type=Path, default=None,
                         help="directory for result text files")
    figures.add_argument("--svg", type=Path, default=None,
                         help="also render figures 4/5/6 as SVG here")

    serve = sub.add_parser(
        "serve", help="run the scheduler service daemon (submission API)"
    )
    _add_cluster_flags(serve, "TOPO-AWARE")
    serve.add_argument("--port", type=int, default=8642,
                       help="HTTP port (0 picks a free port)")
    serve.add_argument("--store", type=Path, default=Path("repro_service.db"),
                       help="sqlite journal (queue survives restarts); "
                       "':memory:' disables durability")
    serve.add_argument("--max-queue-depth", type=int, default=100_000,
                       help="admission backpressure threshold")
    serve.add_argument("--decisions-out", type=Path, default=None,
                       metavar="FILE",
                       help="write the record journal at shutdown "
                       "(JSONL; .gz compresses)")
    _add_watchdog_flags(serve)

    top = sub.add_parser(
        "top", help="htop-style live dashboard for a running daemon"
    )
    top.add_argument("--url", default=DEFAULT_URL, help="daemon base URL")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between repaints")
    top.add_argument("--once", action="store_true",
                     help="render a single frame and exit (no ANSI clear; "
                     "pipe-friendly)")

    soak = sub.add_parser(
        "soak",
        help="replay a bursty trace against a daemon for N wall-clock "
        "minutes under the windowed SLO watchdog",
    )
    soak.add_argument("--minutes", type=float, default=5.0,
                      help="wall-clock soak duration")
    soak.add_argument("--url", default=None,
                      help="drive this daemon (default: start an in-process "
                      "one from the cluster flags, watchdog attached)")
    soak.add_argument("--window", type=float, default=10.0,
                      help="seconds per SLO observation window")
    soak.add_argument("--jobs-per-burst", type=int, default=20)
    soak.add_argument("--burst-every", type=float, default=5.0,
                      help="seconds between submission bursts")
    _add_workload_flags(soak, jobs=False)
    _add_cluster_flags(soak, "TOPO-AWARE")
    _add_watchdog_flags(soak, watchdog=False)
    soak.add_argument("--out", type=Path, default=Path("."),
                      help="SOAK_*.json artifact path or directory "
                      "(default: current directory)")

    submit = sub.add_parser(
        "submit", help="submit a job manifest to a running daemon"
    )
    submit.add_argument("manifest", type=Path,
                        help="JSON job manifest (repro.workload.manifest)")
    submit.add_argument("--url", default=DEFAULT_URL, help="daemon base URL")
    submit.add_argument("--priority", type=int, default=0,
                        help="feeding priority (higher drains first)")

    cancel = sub.add_parser("cancel", help="cancel a job on a running daemon")
    cancel.add_argument("job_id")
    cancel.add_argument("--url", default=DEFAULT_URL, help="daemon base URL")

    status = sub.add_parser(
        "status", help="job table (or one job) from a running daemon"
    )
    status.add_argument("--url", default=DEFAULT_URL, help="daemon base URL")
    status.add_argument("--job", default=None, help="only this job id")

    replay = sub.add_parser(
        "replay", help="replay a trace through the daemon's submission API"
    )
    replay.add_argument("manifest", type=Path, nargs="?", default=None,
                        help="JSON job manifest (default: a generated "
                        "fig10-style workload)")
    replay.add_argument("--url", default=DEFAULT_URL, help="daemon base URL")
    _add_workload_flags(replay)
    replay.add_argument("--priority", type=int, default=0)
    replay.add_argument("--live", action="store_true",
                        help="submit against the running engine instead of "
                        "pause/submit-all/resume")
    replay.add_argument("--no-wait", action="store_true",
                        help="do not wait for submitted jobs to finish")
    replay.add_argument("--timeout", type=float, default=120.0,
                        help="seconds to wait for terminal states")

    report = sub.add_parser(
        "report", help="generate the markdown reproduction report"
    )
    report.add_argument("--out", type=Path, default=None,
                        help="write to a file instead of stdout")

    trace = sub.add_parser(
        "trace", help="inspect the timing spans of a record journal"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_summarize = trace_sub.add_parser(
        "summarize", help="per-job decision timeline from a trace file"
    )
    _add_journal_arg(trace_summarize, "trace_file")
    trace_summarize.add_argument("--job", default=None,
                                 help="only this job id")
    trace_export = trace_sub.add_parser(
        "export",
        help="convert a trace for Perfetto / chrome://tracing",
    )
    _add_journal_arg(trace_export, "trace_file")
    trace_export.add_argument("--format", choices=("chrome",),
                              default="chrome",
                              help="output format (Chrome Trace Event JSON)")
    trace_export.add_argument("--out", type=Path, default=None, metavar="FILE",
                              help="output file (default: input with a "
                              ".chrome.json suffix)")
    trace_profile = trace_sub.add_parser(
        "profile",
        help="per-phase self/total times, critical paths, slowest rounds",
    )
    _add_journal_arg(trace_profile, "trace_file")
    trace_profile.add_argument("--top", type=int, default=10,
                               help="rows in the slowest-rounds/heaviest-jobs "
                               "tables")
    trace_profile.add_argument("--job", default=None,
                               help="restrict round details to this job id")

    explain = sub.add_parser(
        "explain",
        help="render decision provenance (why the scheduler chose)",
    )
    explain_sub = explain.add_subparsers(dest="explain_command", required=True)
    explain_job = explain_sub.add_parser(
        "job", help="one job's lifecycle, decisions and decision time"
    )
    explain_job.add_argument("job_id")
    _add_journal_arg(explain_job, "decisions_file")
    explain_round = explain_sub.add_parser(
        "round", help="every decision one scheduling round made"
    )
    explain_round.add_argument("round_no", type=int)
    _add_journal_arg(explain_round, "decisions_file")
    explain_list = explain_sub.add_parser(
        "list", help="one-line-per-decision index of a journal"
    )
    _add_journal_arg(explain_list, "decisions_file")
    return parser


def _generate(args) -> list:
    from repro.workload.generator import GeneratorConfig, WorkloadGenerator

    cfg = GeneratorConfig(arrival_rate_per_min=args.arrival_rate)
    return WorkloadGenerator(cfg, seed=args.seed).generate(args.jobs)


def _topology_factory(args):
    from repro.topology.builders import fleet

    return fleet(args.machine, args.machines)


def _slo_rules(args):
    """The watchdog's rules: those of ``--slo-rules FILE``, else the
    defaults."""
    from repro.obs.alerts import DEFAULT_RULES, load_rules

    if args.slo_rules is None:
        return DEFAULT_RULES
    try:
        return load_rules(args.slo_rules)
    except (OSError, ValueError) as exc:
        raise _UsageError(f"--slo-rules: {exc}") from None


def _load_manifest(path: Path) -> list:
    from repro.workload.manifest import ManifestError, load_manifest

    with _usage_error_on(OSError, ManifestError):
        return load_manifest(path)


def _read_journal(path: Path) -> list:
    """The records of a ``--decisions-out`` journal (a missing file or a
    schema violation is a usage error)."""
    from repro.obs.provenance import read_records

    with _usage_error_on(OSError, ValueError):
        return read_records(path)


@contextmanager
def _daemon(url: str):
    """A keep-alive client of the daemon at ``url``, closed on exit; a
    bad url or an unreachable daemon is a usage error."""
    from repro.service.driver import ReplayError, _Client

    with _usage_error_on(ReplayError), closing(_Client(url)) as client:
        yield client


def _cmd_run(args) -> int:
    from repro.analysis.tables import format_timeline
    from repro.prototype.config import ConfigError
    from repro.prototype.system import PrototypeSystem
    from repro.sim.metrics import comparison_table

    jobs = _load_manifest(args.manifest) if args.manifest else None
    with _usage_error_on(OSError, ConfigError):
        system = PrototypeSystem.from_config_dir(args.config_dir, jobs=jobs)
    runs = system.run()
    print(comparison_table([r.result for r in runs]))
    print()
    for run in runs:
        print(format_timeline(run.result))
        print()
    return 0


class _TelemetrySinks:
    """CLI-side lifecycle for the telemetry and operational flags.

    Builds one shared registry, hands out per-policy
    :class:`TelemetryObserver` / :class:`Watchdog` / decision recorder
    / snapshot taps, installs each policy's decision recorder as the
    span sink (so spans are captured only with ``--decisions-out``),
    starts the ``--serve`` introspection server for the duration of
    the run, and flushes every requested file once the runs finish.
    With no flags set it stays completely inert (no observers
    attached, tracing disabled, no sockets opened).

    Raises :class:`_UsageError` from the constructor when
    ``--slo-rules`` names a missing or invalid file.
    """

    def __init__(self, args) -> None:
        from repro.obs import MetricsRegistry

        self.metrics_out = args.metrics_out
        self.decisions_out = args.decisions_out
        self.serve_port = args.serve
        self.serve_linger = args.serve_linger
        self.watchdog_enabled = bool(
            args.watchdog or args.slo_rules is not None or args.serve is not None
        )
        self.enabled = (
            self.metrics_out is not None
            or self.decisions_out is not None
            or self.watchdog_enabled
            or self.serve_port is not None
        )
        self.registry = MetricsRegistry()
        self.rules = _slo_rules(args) if self.watchdog_enabled else None
        self.publisher = None
        self.server = None
        if self.serve_port is not None:
            from repro.obs.server import IntrospectionServer
            from repro.obs.state import SnapshotPublisher

            self.publisher = SnapshotPublisher()
            self.server = IntrospectionServer(
                self.publisher, self.registry, port=self.serve_port
            )
        self.decision_recorders: dict[str, object] = {}

    def observers(self, scheduler: str) -> tuple:
        if not self.enabled:
            return ()
        from repro.obs.telemetry import TelemetryObserver

        taps: list = [TelemetryObserver(self.registry, scheduler=scheduler)]
        if self.watchdog_enabled:
            from repro.obs.alerts import Watchdog

            watchdog = Watchdog(self.registry, self.rules, scheduler=scheduler)
            if self.server is not None:
                # /alerts follows the policy currently running
                self.server.watchdog = watchdog
            taps.append(watchdog)
        if self.decisions_out is not None:
            from repro.obs import trace
            from repro.obs.provenance import DecisionRecorder

            decision_rec = DecisionRecorder(
                journal=True, registry=self.registry, scheduler=scheduler
            )
            self.decision_recorders[scheduler] = decision_rec
            # this policy's spans land in its journal (uninstalled when
            # the sinks' context exits)
            trace.install(decision_rec)
            if self.server is not None:
                # /decisions, /explain/<id> and /events follow the
                # policy currently running, like /alerts
                self.server.recorder = decision_rec
            taps.append(decision_rec)
        if self.publisher is not None:
            from repro.obs.state import SnapshotObserver

            taps.append(SnapshotObserver(self.publisher, scheduler=scheduler))
        return tuple(taps)

    def __enter__(self):
        if self.server is not None:
            self.server.start()
            extra = (
                " /decisions /explain/<id> /events"
                if self.decisions_out is not None
                else ""
            )
            print(
                f"introspection server listening on {self.server.url} "
                f"(endpoints: /metrics /healthz /state /alerts{extra})"
            )
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.decisions_out is not None:
            from repro.obs import trace

            trace.install(None)
        if self.server is not None:
            if exc_type is None and self.serve_linger > 0:
                import time

                print(
                    f"introspection server lingering "
                    f"{self.serve_linger:g}s before shutdown"
                )
                time.sleep(self.serve_linger)
            self.server.stop()
        return False

    def flush(self) -> None:
        from repro.obs import write_metrics

        if self.metrics_out is not None:
            write_metrics(self.registry, self.metrics_out)
            print(f"metrics written to {self.metrics_out}")
        if self.decisions_out is not None:
            from repro.obs.io import open_text

            total = 0
            with open_text(self.decisions_out, "w") as fp:
                for decision_rec in self.decision_recorders.values():
                    for line in decision_rec.journal:
                        fp.write(line + "\n")
                        total += 1
            print(f"{total} records written to {self.decisions_out}")

    # ------------------------------------------------------------------
    # end-of-run operational summaries
    # ------------------------------------------------------------------
    def wait_quantiles(self, scheduler: str) -> dict[str, float] | None:
        """p50/p95/p99 of the queue-wait histogram for one policy."""
        if not self.enabled or "repro_job_waiting_seconds" not in self.registry:
            return None
        hist = self.registry.get("repro_job_waiting_seconds")
        if hist.count(scheduler=scheduler) == 0:
            return None
        return {
            f"queue_wait_p{int(q * 100)}_s": hist.quantile(q, scheduler=scheduler)
            for q in (0.5, 0.95, 0.99)
        }

    def alert_lines(self, result) -> list[str]:
        """Printable end-of-run digest of the watchdog's firings."""
        if not self.watchdog_enabled:
            return []
        lines = [f"{'slo_alerts_fired':>22}: {len(result.alerts)}"]
        for alert in result.alerts:
            value = alert["value"]
            shown = f"{value:.4g}" if isinstance(value, (int, float)) else "n/a"
            lines.append(
                f"  ALERT [{alert['severity']}] {alert['rule']}: "
                f"{alert['signal']} {alert['op']} {alert['threshold']:g} "
                f"(value {shown}) at t={alert['t']:.1f}s "
                f"round {alert['round']}"
            )
        return lines


def _cmd_simulate(args) -> int:
    from repro.analysis.gantt import GanttObserver
    from repro.schedulers import make_scheduler
    from repro.sim.metrics import UtilizationObserver, summarize
    from repro.sim.runner import run_with_observers

    topo = _topology_factory(args)()
    jobs = _generate(args)
    gantt = GanttObserver(args.scheduler)
    utilization = UtilizationObserver(total_gpus=len(topo.gpus()))
    sinks = _TelemetrySinks(args)
    telemetry = sinks.observers(args.scheduler)
    with sinks:
        result = run_with_observers(
            topo,
            make_scheduler(args.scheduler),
            jobs,
            observers=(gantt, utilization, *telemetry),
        )
        for key, value in summarize(result).items():
            print(f"{key:>22}: {value}")
        print(f"{'avg_utilization':>22}: {utilization.average():.3f}")
        quantiles = sinks.wait_quantiles(args.scheduler)
        if quantiles is not None:
            for key, value in quantiles.items():
                print(f"{key:>22}: {value:.1f}")
        for line in sinks.alert_lines(result):
            print(line)
        if args.gantt:
            print()
            print(gantt.chart())
        sinks.flush()
    return 0


def _cmd_compare(args) -> int:
    from repro.analysis.gantt import GanttObserver, comparison_charts
    from repro.sim.metrics import comparison_table
    from repro.sim.runner import COMPARE_POLICIES, run_comparison

    topo_factory = _topology_factory(args)
    jobs = _generate(args)
    sinks = _TelemetrySinks(args)
    gantts: dict[str, GanttObserver] = {}

    def observer_factory(name: str):
        observers = list(sinks.observers(name))
        if args.gantt:
            gantts[name] = GanttObserver(name)
            observers.append(gantts[name])
        return observers

    with sinks:
        results = run_comparison(
            topo_factory,
            jobs,
            COMPARE_POLICIES,
            observer_factory=observer_factory,
        )
        print(comparison_table(list(results.values())))
        if sinks.watchdog_enabled:
            for name, result in results.items():
                for line in sinks.alert_lines(result):
                    print(f"[{name}] {line.strip()}")
        if args.gantt:
            print()
            print(comparison_charts(gantts))
        sinks.flush()
    return 0


def _cmd_trace(args) -> int:
    from repro.obs.provenance import records_of, render_runs

    records = _read_journal(args.trace_file)
    spans = records_of("span", records)

    def per_run(render) -> str:
        # one span forest per run: span ids restart in each policy's run
        def run_view(run: list) -> str | None:
            run_spans = records_of("span", run)
            return render(run_spans) if run_spans else None

        text = render_runs(records, run_view)
        return text if text is not None else render([])

    if args.trace_command == "summarize":
        from repro.obs import summarize as summarize_trace

        print(per_run(lambda run: summarize_trace(run, job_id=args.job)))
    elif args.trace_command == "export":
        from repro.obs.profile import write_chrome_trace

        out = args.out
        if out is None:
            out = args.trace_file.with_suffix(".chrome.json")
        with _usage_error_on(OSError):
            write_chrome_trace(spans, out)
        print(
            f"{len(spans)} spans exported to {out} "
            "(open in https://ui.perfetto.dev or chrome://tracing)"
        )
    else:  # profile
        from repro.obs.profile import format_profile, profile_spans

        print(per_run(lambda run: format_profile(
            profile_spans(run, job_id=args.job), top=args.top
        )))
    return 0


def _cmd_explain(args) -> int:
    from repro.analysis.explain import (
        decision_summary_table,
        format_job_explanation,
        format_round_explanation,
    )

    records = _read_journal(args.decisions_file)
    if args.explain_command == "job":
        print(format_job_explanation(args.job_id, records))
    elif args.explain_command == "round":
        print(format_round_explanation(args.round_no, records))
    else:  # list
        print(decision_summary_table(records))
    return 0


def _cmd_topo(args) -> int:
    from repro.topology.builders import MACHINES
    from repro.topology.discovery import render_numactl_hardware, render_topo_matrix
    from repro.topology.render import render_gpu_distances, render_tree

    topo = MACHINES[args.machine]()
    if args.numactl:
        print(render_numactl_hardware(topo), end="")
    elif args.matrix:
        print(render_topo_matrix(topo), end="")
    else:
        print(render_tree(topo))
        print(f"\np2p islands: {topo.p2p_island_sizes()}")
        print("\nGPU distance matrix (Eq. 3 input):")
        print(render_gpu_distances(topo))
    return 0


def _cmd_figures(args) -> int:
    from repro.analysis.figures import (
        fig3_breakdown,
        fig4_pack_vs_spread,
        fig6_collocation,
        fig8_prototype,
        sec32_pcie_vs_nvlink,
    )
    from repro.analysis.tables import (
        format_breakdown_table,
        format_collocation_table,
        format_speedup_table,
    )
    from repro.sim.metrics import comparison_table

    sections = {
        "fig3_breakdown": format_breakdown_table(fig3_breakdown()),
        "fig4_pack_vs_spread": format_speedup_table(fig4_pack_vs_spread()),
        "fig6_collocation": format_collocation_table(fig6_collocation()),
        "sec32_pcie_vs_nvlink": str(sec32_pcie_vs_nvlink()),
        "fig8_prototype": comparison_table(list(fig8_prototype().values())),
    }
    for name, text in sections.items():
        print(f"=== {name} ===")
        print(text)
        print()
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"{name}.txt").write_text(text + "\n")
    if args.svg is not None:
        from repro.plot.figures import render_all_figures

        for path in render_all_figures(args.svg):
            print(f"rendered {path}")
    return 0


def _cmd_serve(args) -> int:
    import select
    import signal
    import socket

    from repro.service import SchedulerService, ServiceServer

    rules = (
        _slo_rules(args)
        if args.watchdog or args.slo_rules is not None
        else None
    )
    topo = _topology_factory(args)()
    service = SchedulerService(
        topo,
        args.scheduler,
        store_path=str(args.store),
        max_queue_depth=args.max_queue_depth,
        decision_journal=args.decisions_out is not None,
        watchdog_rules=rules,
    )
    if service.recovered_jobs:
        print(
            f"recovered {service.recovered_jobs} unfinished job(s) "
            f"from {args.store}"
        )
    # SIGTERM/SIGINT only set a flag: a handler that took a lock (say,
    # Event.set) could run while the main thread held that same lock
    # and deadlock.  The signal's byte on the wake-up socket ends the
    # select at once, whichever thread the signal was delivered to.
    stopping = []

    def _on_signal(signum, frame):  # noqa: ARG001 - signal signature
        stopping.append(signum)

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    service.start()
    server = ServiceServer(service, port=args.port).start()
    print(
        f"scheduler service ({args.scheduler}) listening on {server.url}\n"
        "verbs: POST /submit /cancel /pause /resume; "
        "GET /jobs /jobs/<id> /state /metrics /healthz /alerts "
        "/timeseries /cluster /decisions /explain/<id> /events"
    )
    # made once the server is up, so a failed start leaves no wake-up
    # fd installed; a signal before this point is already in the flag
    wake_r, wake_w = socket.socketpair()
    wake_r.setblocking(False)
    wake_w.setblocking(False)
    previous_wakeup = signal.set_wakeup_fd(wake_w.fileno())
    try:
        # a fail-stopped service exits on its own, non-zero, so a
        # supervisor restarts it from the journal
        while not stopping and service.failure is None:
            if select.select([wake_r], [], [], 0.5)[0]:
                wake_r.recv(64)
    finally:
        server.stop()
        service.stop()
        signal.set_wakeup_fd(previous_wakeup)
        wake_r.close()
        wake_w.close()
    if args.decisions_out is not None:
        path = service.decision_recorder.write_journal(args.decisions_out)
        count = len(service.decision_recorder.journal or ())
        print(f"{count} records written to {path}")
    if service.failure is not None:
        print(f"error: scheduler service failed: {service.failure}",
              file=sys.stderr)
        return 1
    print("scheduler service stopped")
    return 0


def _cmd_top(args) -> int:
    import time

    from repro.analysis.top import CLEAR, render_dashboard

    endpoints = ("state", "cluster", "timeseries", "alerts")
    with _daemon(args.url) as client:
        try:
            while True:
                docs = {}
                for name in endpoints:
                    status, doc = client.request("GET", f"/{name}")
                    if status == 200:
                        docs[name] = doc
                frame = render_dashboard(docs, url=args.url)
                if args.once:
                    print(frame)
                    return 0
                print(CLEAR + frame, flush=True)
                time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def _cmd_soak(args) -> int:
    from repro.analysis.soak import format_soak, run_soak, write_soak

    with _usage_error_on(RuntimeError):  # a ReplayError is a RuntimeError
        result = run_soak(
            url=args.url,
            minutes=args.minutes,
            window_s=args.window,
            jobs_per_burst=args.jobs_per_burst,
            burst_every_s=args.burst_every,
            seed=args.seed,
            arrival_rate=args.arrival_rate,
            topo_factory=None if args.url else _topology_factory(args),
            scheduler=args.scheduler,
            rules=_slo_rules(args),
            progress=print,
        )
    print(format_soak(result))
    if args.out is not None:
        path = write_soak(result, args.out)
        print(f"soak artifact written to {path}")
    return 0 if result.verdict == "clean" else 1


def _cmd_submit(args) -> int:
    from repro.workload.manifest import job_to_dict

    jobs = _load_manifest(args.manifest)
    failures = 0
    with _daemon(args.url) as client:
        for job in jobs:
            body = job_to_dict(job)
            if args.priority:
                body["priority"] = args.priority
            status, doc = client.request("POST", "/submit", body)
            if status == 202:
                print(f"{job.job_id}: {doc.get('state', 'SUBMITTED')}")
            else:
                failures += 1
                reason = doc.get("rejected") or doc.get("error") or status
                print(f"{job.job_id}: rejected ({reason})", file=sys.stderr)
    return 1 if failures else 0


def _cmd_cancel(args) -> int:
    with _daemon(args.url) as client:
        status, doc = client.request("POST", "/cancel", {"id": args.job_id})
    if status != 202:
        print(f"error: {doc.get('error', status)}", file=sys.stderr)
        return 1
    print(f"{args.job_id}: cancellation requested (was {doc.get('state')})")
    return 0


def _cmd_status(args) -> int:
    path = "/jobs" if args.job is None else f"/jobs/{args.job}"
    with _daemon(args.url) as client:
        status, doc = client.request("GET", path)
    if args.job is not None:
        if status != 200:
            print(f"error: {doc.get('error', status)}", file=sys.stderr)
            return 1
        print(f"{doc['id']}: {doc['state']}")
        for key, value in sorted(doc.get("record", {}).items()):
            print(f"{key:>18}: {value}")
        return 0
    if status != 200:
        print(f"error: GET /jobs answered {status}", file=sys.stderr)
        return 1
    jobs = doc.get("jobs", {})
    counts: dict[str, int] = {}
    for state in jobs.values():
        counts[state] = counts.get(state, 0) + 1
    print(
        f"{len(jobs)} job(s), queue depth {doc.get('queue_depth')}"
        + (" [paused]" if doc.get("paused") else "")
    )
    for state, n in sorted(counts.items()):
        print(f"{state:>12}: {n}")
    return 0


def _cmd_replay(args) -> int:
    from repro.service.driver import ReplayError, replay_trace

    if args.manifest is not None:
        jobs = _load_manifest(args.manifest)
    else:
        jobs = _generate(args)
    with _usage_error_on(ReplayError):
        report = replay_trace(
            jobs,
            args.url,
            pause=not args.live,
            priority=args.priority,
            wait=not args.no_wait,
            timeout_s=args.timeout,
        )
    print(report.summary())
    if not args.no_wait and not report.completed:
        print("error: timed out waiting for terminal states", file=sys.stderr)
        return 1
    return 0


def _cmd_report(args) -> int:
    from repro.analysis.report import generate_report, write_report

    if args.out is not None:
        path = write_report(args.out)
        print(f"report written to {path}")
    else:
        print(generate_report())
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "simulate": _cmd_simulate,
        "compare": _cmd_compare,
        "topo": _cmd_topo,
        "figures": _cmd_figures,
        "serve": _cmd_serve,
        "top": _cmd_top,
        "soak": _cmd_soak,
        "submit": _cmd_submit,
        "cancel": _cmd_cancel,
        "status": _cmd_status,
        "replay": _cmd_replay,
        "report": _cmd_report,
        "trace": _cmd_trace,
        "explain": _cmd_explain,
    }
    try:
        return handlers[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
