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

Everything is also available as a library; the CLI is a thin veneer
over :mod:`repro.prototype`, :mod:`repro.sim`, :mod:`repro.obs` and
:mod:`repro.analysis`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

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
        p.add_argument("--jobs", type=int, default=100)
        p.add_argument("--machines", type=int, default=5)
        p.add_argument("--machine", choices=MACHINE_CHOICES, default="power8-minsky")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--arrival-rate", type=float, default=2.2,
                       help="jobs per minute (Poisson lambda)")
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
        p.add_argument("--watchdog", action="store_true",
                       help="evaluate the default SLO watchdog rules at "
                       "every decision round")
        p.add_argument("--slo-rules", type=Path, default=None, metavar="FILE",
                       help="JSON/TOML watchdog rule file (implies "
                       "--watchdog)")
        if name == "simulate":
            p.add_argument("--scheduler", choices=SCHEDULER_CHOICES,
                           type=lambda s: s.upper(), default="TOPO-AWARE-P")

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

    bench = sub.add_parser(
        "bench", help="time scheduler decision rounds (perf trajectory)"
    )
    bench.add_argument("--scale", choices=("fig10", "fig11"), default="fig10",
                       help="workload scale (fig10: 100 jobs/5 machines; "
                       "fig11: 300 jobs on the paper's 1000-machine "
                       "scenario-2 cluster)")
    bench.add_argument("--jobs", type=int, default=None,
                       help="override the scale's job count")
    bench.add_argument("--machines", type=int, default=None,
                       help="override the scale's machine count")
    bench.add_argument("--repeats", type=int, default=3,
                       help="runs per scheduler (at least 3) and per "
                       "fast-path side; best is reported")
    bench.add_argument("--schedulers", default=None, metavar="A,B,...",
                       help="comma-separated policies (default: FCFS,BF,"
                       "TOPO-AWARE,TOPO-AWARE-P)")
    bench.add_argument("--quick", action="store_true",
                       help="CI mode: one fast-path repeat, TOPO-AWARE + "
                       "FCFS only")
    bench.add_argument("--no-verify", action="store_true",
                       help="skip the fast-path equivalence check")
    bench.add_argument("--out", type=Path, default=None, metavar="FILE",
                       help="write the BENCH_*.json artifact here")
    bench.add_argument("--check-against", type=Path, default=None,
                       metavar="BENCH.json",
                       help="fail when slower than this committed baseline")
    bench.add_argument("--threshold", type=float, default=3.0,
                       help="allowed slowdown vs the baseline (default 3.0x)")
    bench.add_argument("--no-fastpath", action="store_true",
                       help="skip the prefilter vs exhaustive-host "
                       "timing section")
    bench.add_argument("--min-speedup", type=float, default=None,
                       metavar="X",
                       help="with --check-against: fail when the measured "
                       "prefilter speedup over the exhaustive-host "
                       "reference falls below X "
                       "(load-independent interleaved ratio)")
    bench.add_argument("--seed-baseline", type=float, default=None,
                       metavar="SECONDS",
                       help="externally measured mean decision time of the "
                       "pre-fast-path engine, recorded in the artifact "
                       "with the derived speedup-vs-seed")

    serve = sub.add_parser(
        "serve", help="run the scheduler service daemon (submission API)"
    )
    serve.add_argument("--machines", type=int, default=5)
    serve.add_argument("--machine", choices=MACHINE_CHOICES,
                       default="power8-minsky")
    serve.add_argument("--scheduler", choices=SCHEDULER_CHOICES,
                       type=lambda s: s.upper(), default="TOPO-AWARE")
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
    serve.add_argument("--watchdog", action="store_true",
                       help="attach the SLO watchdog (default rules) — "
                       "/alerts carries live state, soak verdicts work")
    serve.add_argument("--slo-rules", type=Path, default=None, metavar="FILE",
                       help="JSON/TOML watchdog rule file (implies "
                       "--watchdog; supports windowed rules)")

    top = sub.add_parser(
        "top", help="htop-style live dashboard for a running daemon"
    )
    top.add_argument("--url", default="http://127.0.0.1:8642",
                     help="daemon base URL")
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
                      help="drive this daemon (default: start an "
                      "in-process one, watchdog attached)")
    soak.add_argument("--window", type=float, default=10.0,
                      help="seconds per SLO observation window")
    soak.add_argument("--jobs-per-burst", type=int, default=20)
    soak.add_argument("--burst-every", type=float, default=5.0,
                      help="seconds between submission bursts")
    soak.add_argument("--seed", type=int, default=42)
    soak.add_argument("--arrival-rate", type=float, default=2.2,
                      help="jobs per minute (Poisson lambda) inside a burst")
    soak.add_argument("--machines", type=int, default=5,
                      help="in-process daemon cluster size (ignored "
                      "with --url)")
    soak.add_argument("--machine", choices=MACHINE_CHOICES,
                      default="power8-minsky")
    soak.add_argument("--scheduler", choices=SCHEDULER_CHOICES,
                      type=lambda s: s.upper(), default="TOPO-AWARE")
    soak.add_argument("--slo-rules", type=Path, default=None, metavar="FILE",
                      help="JSON/TOML rule file for the in-process "
                      "daemon's watchdog")
    soak.add_argument("--out", type=Path, default=Path("."),
                      help="SOAK_*.json artifact path or directory "
                      "(default: current directory)")

    submit = sub.add_parser(
        "submit", help="submit a job manifest to a running daemon"
    )
    submit.add_argument("manifest", type=Path,
                        help="JSON job manifest (repro.workload.manifest)")
    submit.add_argument("--url", default="http://127.0.0.1:8642",
                        help="daemon base URL")
    submit.add_argument("--priority", type=int, default=0,
                        help="feeding priority (higher drains first)")

    cancel = sub.add_parser("cancel", help="cancel a job on a running daemon")
    cancel.add_argument("job_id")
    cancel.add_argument("--url", default="http://127.0.0.1:8642")

    status = sub.add_parser(
        "status", help="job table (or one job) from a running daemon"
    )
    status.add_argument("--url", default="http://127.0.0.1:8642")
    status.add_argument("--job", default=None, help="only this job id")

    replay = sub.add_parser(
        "replay", help="replay a trace through the daemon's submission API"
    )
    replay.add_argument("manifest", type=Path, nargs="?", default=None,
                        help="JSON job manifest (default: a generated "
                        "fig10-style workload)")
    replay.add_argument("--url", default="http://127.0.0.1:8642")
    replay.add_argument("--jobs", type=int, default=100,
                        help="generated-workload size (no manifest)")
    replay.add_argument("--seed", type=int, default=42)
    replay.add_argument("--arrival-rate", type=float, default=2.2)
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
    trace_summarize.add_argument("trace_file", type=Path,
                                 help="JSONL journal written by --decisions-out")
    trace_summarize.add_argument("--job", default=None,
                                 help="only this job id")
    trace_export = trace_sub.add_parser(
        "export",
        help="convert a trace for Perfetto / chrome://tracing",
    )
    trace_export.add_argument("trace_file", type=Path,
                              help="JSONL journal written by --decisions-out")
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
    trace_profile.add_argument("trace_file", type=Path,
                               help="JSONL journal written by --decisions-out")
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
    explain_job.add_argument("decisions_file", type=Path,
                             help="JSONL journal written by --decisions-out "
                             "(.gz read transparently)")
    explain_round = explain_sub.add_parser(
        "round", help="every decision one scheduling round made"
    )
    explain_round.add_argument("round_no", type=int)
    explain_round.add_argument("decisions_file", type=Path,
                               help="JSONL journal written by --decisions-out "
                               "(.gz read transparently)")
    explain_list = explain_sub.add_parser(
        "list", help="one-line-per-decision index of a journal"
    )
    explain_list.add_argument("decisions_file", type=Path,
                              help="JSONL journal written by --decisions-out "
                              "(.gz read transparently)")
    return parser


def _builder_for(machine: str):
    from repro.topology import builders

    return {
        "power8-minsky": builders.power8_minsky,
        "dgx1": builders.dgx1,
        "dgx2": builders.dgx2,
        "power8-pcie-k80": builders.power8_pcie_k80,
        "power9-ac922": builders.power9_ac922,
    }[machine]


def _generate(args) -> list:
    from repro.workload.generator import GeneratorConfig, WorkloadGenerator

    cfg = GeneratorConfig(arrival_rate_per_min=args.arrival_rate)
    return WorkloadGenerator(cfg, seed=args.seed).generate(args.jobs)


def _topology_factory(args):
    from repro.topology.builders import cluster

    base = _builder_for(args.machine)
    if args.machines == 1:
        return base
    return lambda: cluster(args.machines, base)


class _SloRulesError(Exception):
    """``--slo-rules`` names a missing or invalid file (exit code 2)."""


def _slo_rules(args):
    """The watchdog's rules: those of ``--slo-rules FILE``, else the
    defaults."""
    from repro.obs.alerts import DEFAULT_RULES, load_rules

    if args.slo_rules is None:
        return DEFAULT_RULES
    try:
        return load_rules(args.slo_rules)
    except (OSError, ValueError) as exc:
        raise _SloRulesError(exc) from None


def _cmd_run(args) -> int:
    from repro.analysis.tables import format_timeline
    from repro.prototype.system import PrototypeSystem
    from repro.sim.metrics import comparison_table
    from repro.workload.manifest import load_manifest

    jobs = load_manifest(args.manifest) if args.manifest else None
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

    Raises :class:`_SloRulesError` from the constructor when
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
        self.watchdogs: dict[str, object] = {}
        self.decision_recorders: dict[str, object] = {}

    def observers(self, scheduler: str) -> tuple:
        if not self.enabled:
            return ()
        from repro.obs.telemetry import TelemetryObserver

        taps: list = [TelemetryObserver(self.registry, scheduler=scheduler)]
        if self.watchdog_enabled:
            from repro.obs.alerts import Watchdog

            watchdog = Watchdog(self.registry, self.rules, scheduler=scheduler)
            self.watchdogs[scheduler] = watchdog
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
    from repro.obs.provenance import read_records, records_of, render_runs

    try:
        records = read_records(args.trace_file)
    except (OSError, ValueError) as exc:
        # missing file or schema violation: one line, exit 2, no traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
        try:
            write_chrome_trace(spans, out)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
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
    from repro.obs.provenance import read_records

    try:
        records = read_records(args.decisions_file)
    except (OSError, ValueError) as exc:
        # missing file or schema violation: one line, exit 2, no traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.explain_command == "job":
        print(format_job_explanation(args.job_id, records))
    elif args.explain_command == "round":
        print(format_round_explanation(args.round_no, records))
    else:  # list
        print(decision_summary_table(records))
    return 0


def _cmd_topo(args) -> int:
    from repro.topology.discovery import render_numactl_hardware, render_topo_matrix
    from repro.topology.render import render_gpu_distances, render_tree

    topo = _builder_for(args.machine)()
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


def _cmd_bench(args) -> int:
    from repro.analysis.bench import (
        compare_to_baseline,
        format_bench,
        run_bench,
        write_bench,
    )

    if args.schedulers is not None:
        schedulers = tuple(s.strip().upper() for s in args.schedulers.split(","))
    elif args.quick:
        schedulers = ("FCFS", "TOPO-AWARE")
    else:
        schedulers = ("FCFS", "BF", "TOPO-AWARE", "TOPO-AWARE-P")
    bench = run_bench(
        args.scale,
        n_jobs=args.jobs,
        n_machines=args.machines,
        schedulers=schedulers,
        repeats=1 if args.quick else args.repeats,
        verify=not args.no_verify,
        fastpath=not args.no_fastpath,
        seed_baseline_s=args.seed_baseline,
    )
    print(format_bench(bench))
    if args.out is not None:
        path = write_bench(bench, args.out)
        print(f"bench artifact written to {path}")
    if args.check_against is not None:
        try:
            failures = compare_to_baseline(
                bench, args.check_against, args.threshold,
                min_speedup=args.min_speedup,
            )
        except (OSError, ValueError) as exc:
            # missing or malformed baseline: one line, exit 2, no traceback
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if failures:
            for line in failures:
                print(f"REGRESSION: {line}", file=sys.stderr)
            return 1
        print(f"within {args.threshold:.1f}x of {args.check_against}")
    return 0


def _cmd_serve(args) -> int:
    import signal
    import threading

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
    stop = threading.Event()

    def _on_signal(signum, frame):  # noqa: ARG001 - signal signature
        stop.set()

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
    try:
        # a fail-stopped service exits on its own, non-zero, so a
        # supervisor restarts it from the journal
        while not stop.is_set() and service.failure is None:
            stop.wait(0.5)
    finally:
        server.stop()
        service.stop()
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

    client, ReplayError = _service_client(args.url)
    endpoints = (
        ("state", "/state"),
        ("cluster", "/cluster"),
        ("timeseries", "/timeseries"),
        ("alerts", "/alerts"),
    )
    try:
        while True:
            docs = {}
            for name, path in endpoints:
                status, doc = client.request("GET", path)
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
    except ReplayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        client.close()


def _cmd_soak(args) -> int:
    from repro.analysis.soak import format_soak, run_soak, write_soak
    from repro.service.driver import ReplayError

    rules = _slo_rules(args) if args.slo_rules is not None else None
    try:
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
            rules=rules,
            progress=print,
        )
    except (ReplayError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_soak(result))
    if args.out is not None:
        path = write_soak(result, args.out)
        print(f"soak artifact written to {path}")
    return 0 if result.verdict == "clean" else 1


def _service_client(url: str):
    from repro.service.driver import ReplayError, _Client

    return _Client(url), ReplayError


def _cmd_submit(args) -> int:
    from repro.workload.manifest import ManifestError, job_to_dict, load_manifest

    try:
        jobs = load_manifest(args.manifest)
    except (OSError, ManifestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    client, ReplayError = _service_client(args.url)
    failures = 0
    try:
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
    except ReplayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        client.close()
    return 1 if failures else 0


def _cmd_cancel(args) -> int:
    client, ReplayError = _service_client(args.url)
    try:
        status, doc = client.request("POST", "/cancel", {"id": args.job_id})
    except ReplayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        client.close()
    if status != 202:
        print(f"error: {doc.get('error', status)}", file=sys.stderr)
        return 1
    print(f"{args.job_id}: cancellation requested (was {doc.get('state')})")
    return 0


def _cmd_status(args) -> int:
    client, ReplayError = _service_client(args.url)
    try:
        if args.job is not None:
            status, doc = client.request("GET", f"/jobs/{args.job}")
            if status != 200:
                print(f"error: {doc.get('error', status)}", file=sys.stderr)
                return 1
            print(f"{doc['id']}: {doc['state']}")
            for key, value in sorted(doc.get("record", {}).items()):
                print(f"{key:>18}: {value}")
            return 0
        status, doc = client.request("GET", "/jobs")
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
    except ReplayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        client.close()


def _cmd_replay(args) -> int:
    from repro.service.driver import ReplayError, replay_trace
    from repro.workload.manifest import ManifestError, load_manifest

    if args.manifest is not None:
        try:
            jobs = load_manifest(args.manifest)
        except (OSError, ManifestError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        jobs = _generate(args)
    try:
        report = replay_trace(
            jobs,
            args.url,
            pause=not args.live,
            priority=args.priority,
            wait=not args.no_wait,
            timeout_s=args.timeout,
        )
    except ReplayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
        "bench": _cmd_bench,
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
    except _SloRulesError as exc:
        print(f"error: --slo-rules: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
