"""Tests for the command-line interface."""

import os
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.cli import main
from repro.analysis.scenarios import table1_jobs
from repro.prototype.config import write_sample_configs
from repro.workload.manifest import dump_manifest


class TestTopoCommand:
    def test_summary(self, capsys):
        assert main(["topo", "--machine", "power8-minsky"]) == 0
        out = capsys.readouterr().out
        assert "p2p islands" in out and "m0/gpu3" in out

    def test_matrix_output(self, capsys):
        assert main(["topo", "--machine", "dgx1", "--matrix"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("\tGPU0") and "NV1" in out

    def test_numactl_output(self, capsys):
        assert main(["topo", "--numactl"]) == 0
        assert "node distances" in capsys.readouterr().out

    def test_unknown_machine_rejected(self):
        with pytest.raises(SystemExit):
            main(["topo", "--machine", "tpu"])


class TestSimulateAndCompare:
    def test_simulate_prints_summary(self, capsys):
        code = main(
            ["simulate", "--jobs", "10", "--machines", "2",
             "--scheduler", "BF", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan_s" in out and "scheduler: BF" in out

    @pytest.mark.parametrize("flag", ["--no-incremental-drb", "--no-prefilter"])
    def test_simulate_rejects_removed_fastpath_flags(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--jobs", "5", "--machines", "2", flag])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_compare_prints_all_policies(self, capsys):
        code = main(["compare", "--jobs", "10", "--machines", "2", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("BF", "FCFS", "TOPO-AWARE", "TOPO-AWARE-P",
                     "TOPO-AWARE-PM"):
            assert name in out

    def test_single_machine_mode(self, capsys):
        code = main(["simulate", "--jobs", "5", "--machines", "1", "--seed", "2"])
        assert code == 0

    def test_new_schedulers_available(self, capsys):
        for name in ("SJF", "EASY-BACKFILL"):
            code = main(
                ["simulate", "--jobs", "8", "--machines", "2",
                 "--scheduler", name, "--seed", "3"]
            )
            assert code == 0
            assert f"scheduler: {name}" in capsys.readouterr().out

    def test_new_machines_available(self, capsys):
        for machine in ("dgx2", "power9-ac922"):
            assert main(["topo", "--machine", machine]) == 0
            out = capsys.readouterr().out
            assert "p2p islands" in out

    def test_scheduler_name_is_case_insensitive(self, capsys):
        code = main(
            ["simulate", "--jobs", "5", "--machines", "1",
             "--scheduler", "topo-aware-p", "--seed", "1"]
        )
        assert code == 0
        assert "scheduler: TOPO-AWARE-P" in capsys.readouterr().out

    def test_simulate_gantt(self, capsys):
        code = main(
            ["simulate", "--jobs", "5", "--machines", "1",
             "--scheduler", "TOPO-AWARE", "--seed", "1", "--gantt"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[TOPO-AWARE]" in out and "legend:" in out

    def test_compare_gantt_renders_panel_per_policy(self, capsys):
        code = main(
            ["compare", "--jobs", "5", "--machines", "1", "--seed", "1",
             "--gantt"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for name in ("BF", "FCFS", "TOPO-AWARE", "TOPO-AWARE-P",
                     "TOPO-AWARE-PM"):
            assert f"[{name}]" in out


class TestTelemetryFlags:
    def test_simulate_writes_all_three_sinks(self, tmp_path, capsys):
        """Metrics, lifecycle and spans: what three sinks used to
        write now comes from two, the journal holding every record."""
        metrics = tmp_path / "metrics.prom"
        journal = tmp_path / "records.jsonl"
        code = main(
            ["simulate", "--jobs", "5", "--machines", "1",
             "--scheduler", "topo-aware-p", "--seed", "7",
             "--metrics-out", str(metrics),
             "--decisions-out", str(journal)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"metrics written to {metrics}" in out
        assert f"records written to {journal}" in out

        from repro.obs import parse_prometheus, read_records

        families = parse_prometheus(metrics.read_text())
        assert len(families) >= 12
        assert "repro_decision_latency_seconds" in families
        records = read_records(journal)
        assert {r["kind"] for r in records} >= {
            "run_start", "job", "decision", "round", "span", "run_end"
        }
        assert any(
            r["kind"] == "span" and r["name"] == "sched.propose"
            for r in records
        )

    def test_metrics_json_suffix(self, tmp_path, capsys):
        import json

        metrics = tmp_path / "metrics.json"
        code = main(
            ["simulate", "--jobs", "5", "--machines", "1", "--seed", "7",
             "--metrics-out", str(metrics)]
        )
        assert code == 0
        payload = json.loads(metrics.read_text())
        assert any(f["name"] == "repro_queue_depth" for f in payload["families"])

    def test_compare_aggregates_all_policies(self, tmp_path, capsys):
        metrics = tmp_path / "m.prom"
        journal = tmp_path / "r.jsonl"
        code = main(
            ["compare", "--jobs", "5", "--machines", "1", "--seed", "7",
             "--metrics-out", str(metrics), "--decisions-out", str(journal)]
        )
        assert code == 0
        from repro.obs import parse_prometheus, read_records

        families = parse_prometheus(metrics.read_text())
        arrived = families["repro_jobs_arrived_total"]["samples"]
        schedulers = {s["labels"]["scheduler"] for s in arrived}
        assert schedulers == {
            "BF", "FCFS", "TOPO-AWARE", "TOPO-AWARE-P", "TOPO-AWARE-PM"
        }
        records = read_records(journal)
        assert {r["scheduler"] for r in records} == schedulers
        # one run per policy, each a whole run of its own
        from repro.obs.provenance import split_runs

        runs = split_runs(records)
        assert [name for name, _ in runs] == [
            "BF", "FCFS", "TOPO-AWARE", "TOPO-AWARE-P", "TOPO-AWARE-PM"
        ]
        for name, run in runs:
            assert run[0]["kind"] == "run_start"
            assert run[-1]["kind"] == "run_end"
            assert all(r["scheduler"] == name for r in run)
            seqs = [r["seq"] for r in run]
            assert seqs == sorted(set(seqs))

    def test_compare_readers_keep_policies_apart(self, tmp_path, capsys):
        """Each policy's recorder numbers seq, rounds and span ids from
        1, so ``trace profile`` and ``explain job`` on a compare journal
        must render each policy's run on its own."""
        journal = tmp_path / "r.jsonl"
        assert main(
            ["compare", "--jobs", "5", "--machines", "1", "--seed", "7",
             "--decisions-out", str(journal)]
        ) == 0
        from repro.obs.provenance import read_records, records_of

        spans = records_of("span", read_records(journal))
        per_policy = Counter(span["scheduler"] for span in spans)
        capsys.readouterr()

        assert main(["trace", "profile", str(journal)]) == 0
        sections = capsys.readouterr().out.split("### ")[1:]
        assert len(sections) == len(per_policy)
        for section in sections:
            name, body = section.split("\n", 1)
            assert body.startswith(f"trace: {per_policy[name]} spans")

        assert main(["explain", "job", "job0", str(journal)]) == 0
        sections = capsys.readouterr().out.split("### ")[1:]
        assert [s.split("\n", 1)[0] for s in sections] == [
            "BF", "FCFS", "TOPO-AWARE", "TOPO-AWARE-P", "TOPO-AWARE-PM"
        ]
        for section in sections:
            name, body = section.split("\n", 1)
            assert body.count("job job0 -> QUEUED") == 1
            assert body.count("job job0 -> FINISHED") == 1
            verdicts = [
                line for line in body.splitlines() if line.startswith("[round ")
            ]
            assert all(f"] {name} -> " in line for line in verdicts)
            assert bool(verdicts) == name.startswith("TOPO-AWARE")

    def test_trace_summarize_round_trip(self, tmp_path, capsys):
        trace = tmp_path / "records.jsonl"
        assert main(
            ["simulate", "--jobs", "5", "--machines", "1",
             "--scheduler", "TOPO-AWARE-P", "--seed", "7",
             "--decisions-out", str(trace)]
        ) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "=== job" in out and "sched.propose" in out

    def test_trace_summarize_job_filter(self, tmp_path, capsys):
        trace = tmp_path / "records.jsonl"
        main(
            ["simulate", "--jobs", "5", "--machines", "1", "--seed", "7",
             "--decisions-out", str(trace)]
        )
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace), "--job", "job0"]) == 0
        out = capsys.readouterr().out
        assert "=== job0" in out and "=== job1" not in out

    @pytest.mark.parametrize("verb", ["simulate", "compare"])
    @pytest.mark.parametrize("flag", ["--events-out", "--trace-out"])
    def test_removed_record_flags_rejected(self, tmp_path, capsys, verb, flag):
        with pytest.raises(SystemExit) as exc:
            main([verb, "--jobs", "5", "--machines", "1",
                  flag, str(tmp_path / "x.jsonl")])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_explain_job_tells_one_jobs_story(self, tmp_path, capsys):
        """``explain job`` on a simulate journal: the job's lifecycle,
        its decision and that decision's sched.propose time, in
        order."""
        journal = tmp_path / "records.jsonl"
        assert main(
            ["simulate", "--jobs", "5", "--machines", "1",
             "--scheduler", "TOPO-AWARE-P", "--seed", "7",
             "--decisions-out", str(journal)]
        ) == 0
        capsys.readouterr()
        assert main(["explain", "job", "job0", str(journal)]) == 0
        out = capsys.readouterr().out
        story = [
            "job job0 -> QUEUED",
            "-> PLACED",
            "decision time: sched.propose",
            "job job0 -> RUNNING",
            "job job0 -> FINISHED",
        ]
        positions = [out.index(marker) for marker in story]
        assert positions == sorted(positions)
        assert "job job1" not in out

    def test_no_flags_no_files(self, tmp_path, capsys):
        code = main(["simulate", "--jobs", "5", "--machines", "1", "--seed", "7"])
        assert code == 0
        assert "written to" not in capsys.readouterr().out


class TestRunCommand:
    def test_prototype_run_from_configs(self, tmp_path, capsys):
        write_sample_configs(tmp_path)
        manifest = tmp_path / "jobs.json"
        dump_manifest(table1_jobs(), manifest)
        code = main(
            ["run", "--config-dir", str(tmp_path), "--manifest", str(manifest)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "TOPO-AWARE-P" in out and "job3" in out

    def test_missing_system_config_is_a_usage_error(self, tmp_path, capsys):
        assert main(["run", "--config-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "sys-config.ini" in err and "Traceback" not in err

    @pytest.mark.parametrize("content", [None, "{"])
    def test_unreadable_manifest_is_a_usage_error(
        self, tmp_path, capsys, content
    ):
        write_sample_configs(tmp_path)
        manifest = tmp_path / "jobs.json"
        if content is not None:
            manifest.write_text(content)
        code = main(
            ["run", "--config-dir", str(tmp_path), "--manifest", str(manifest)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "Traceback" not in err


class TestFiguresCommand:
    def test_writes_result_files(self, tmp_path, capsys):
        code = main(["figures", "--out", str(tmp_path)])
        assert code == 0
        names = {p.name for p in tmp_path.glob("*.txt")}
        assert "fig4_pack_vs_spread.txt" in names
        assert "fig8_prototype.txt" in names

    def test_renders_svg_figures(self, tmp_path, capsys):
        code = main(["figures", "--svg", str(tmp_path / "svg")])
        assert code == 0
        names = {p.name for p in (tmp_path / "svg").glob("*.svg")}
        assert "fig4_pack_vs_spread.svg" in names
        assert "fig6_collocation.svg" in names


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bench_is_an_unknown_verb(self, capsys):
        # decision rounds are timed by perfbench and gated by
        # benchmarks/perf/test_decision_rounds.py
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_module_entry_point_exists(self):
        import repro.__main__  # noqa: F401  -- imports (and exits) only under -m

    def test_machine_choices_are_the_builders_table(self):
        from repro.cli import MACHINE_CHOICES
        from repro.topology.builders import MACHINES

        assert MACHINE_CHOICES == tuple(MACHINES)


class TestSizeFlags:
    """``--jobs`` and ``--machines`` take a positive count, and
    ``--arrival-rate`` a positive finite rate, on every verb that has
    them; anything else is an argparse usage error (exit 2)."""

    @pytest.mark.parametrize(
        "argv",
        [
            [verb, flag, value]
            for verb, flags, values in (
                ("simulate", ("--jobs", "--machines"), ("0", "-3", "x")),
                ("compare", ("--jobs", "--machines"), ("0", "-3", "x")),
                ("replay", ("--jobs",), ("0", "-3", "x")),
                ("serve", ("--machines",), ("0", "-3", "x")),
                ("soak", ("--machines",), ("0", "-3", "x")),
                *(
                    (verb, ("--arrival-rate",), ("0", "-1", "nan", "inf", "x"))
                    for verb in ("simulate", "compare", "replay", "soak")
                ),
            )
            for flag in flags
            for value in values
        ],
    )
    def test_non_positive_size_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        kind = "finite number" if argv[1] == "--arrival-rate" else "integer"
        assert f"argument {argv[1]}: expected a positive {kind}" in err

    def test_positive_sizes_parse_as_ints(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(
            ["simulate", "--jobs", "1", "--machines", "007"]
        )
        assert (args.jobs, args.machines) == (1, 7)


class TestObservabilityCLI:
    def write_trace(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(
            ["simulate", "--jobs", "5", "--machines", "1",
             "--scheduler", "TOPO-AWARE", "--seed", "7",
             "--decisions-out", str(trace)]
        ) == 0
        return trace

    def test_trace_export_writes_chrome_json(self, tmp_path, capsys):
        import json

        trace = self.write_trace(tmp_path)
        capsys.readouterr()
        out = tmp_path / "t.chrome.json"
        assert main(["trace", "export", str(trace), "--out", str(out)]) == 0
        assert "exported to" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert events and all("ts" in e and "dur" in e for e in events)

    def test_trace_export_default_output_name(self, tmp_path, capsys):
        trace = self.write_trace(tmp_path)
        capsys.readouterr()
        assert main(["trace", "export", str(trace)]) == 0
        assert (tmp_path / "trace.chrome.json").exists()

    def test_trace_profile_prints_tables(self, tmp_path, capsys):
        trace = self.write_trace(tmp_path)
        capsys.readouterr()
        assert main(["trace", "profile", str(trace), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "per-phase aggregate" in out
        assert "sched.propose" in out
        assert "critical path:" in out

    def test_trace_profile_job_filter(self, tmp_path, capsys):
        trace = self.write_trace(tmp_path)
        capsys.readouterr()
        assert main(["trace", "profile", str(trace), "--job", "job0"]) == 0
        assert "job0" in capsys.readouterr().out

    @pytest.mark.parametrize("sub", ["summarize", "export", "profile"])
    def test_trace_missing_file_exits_2(self, sub, tmp_path, capsys):
        code = main(["trace", sub, str(tmp_path / "absent.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("sub", ["summarize", "export", "profile"])
    def test_trace_invalid_schema_exits_2(self, sub, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema": 99, "kind": "span"}\n')
        assert main(["trace", sub, str(bad)]) == 2
        assert "unsupported record schema" in capsys.readouterr().err

    def test_trace_not_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json at all\n")
        assert main(["trace", "summarize", str(bad)]) == 2
        assert "not JSON" in capsys.readouterr().err

    def test_simulate_serve_prints_endpoints_and_exits(self, capsys):
        code = main(
            ["simulate", "--jobs", "5", "--machines", "1", "--seed", "7",
             "--serve", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "introspection server listening on http://127.0.0.1:" in out
        assert "/metrics /healthz /state /alerts" in out

    def test_simulate_watchdog_summary_and_quantiles(self, capsys):
        code = main(
            ["simulate", "--jobs", "10", "--machines", "1", "--seed", "7",
             "--scheduler", "TOPO-AWARE", "--watchdog"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "slo_alerts_fired: 0" in out
        assert "queue_wait_p50_s" in out and "queue_wait_p95_s" in out

    def test_simulate_slo_rules_fire_and_print(self, tmp_path, capsys):
        import json

        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps({"rules": [
            {"name": "any-queue", "signal": "queue_depth", "op": ">=",
             "threshold": 0, "severity": "warning"}
        ]}))
        code = main(
            ["simulate", "--jobs", "5", "--machines", "1", "--seed", "7",
             "--slo-rules", str(rules)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "slo_alerts_fired: 1" in out
        assert "ALERT [warning] any-queue: queue_depth >= 0" in out

    def test_simulate_bad_slo_rules_exits_2(self, tmp_path, capsys):
        rules = tmp_path / "rules.json"
        rules.write_text("{broken")
        code = main(
            ["simulate", "--jobs", "5", "--machines", "1", "--seed", "7",
             "--slo-rules", str(rules)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --slo-rules:")

    @pytest.mark.parametrize("command", [
        ["serve", "--machines", "1", "--port", "0"],
        ["soak", "--minutes", "0.01", "--machines", "1"],
    ])
    def test_bad_slo_rules_exits_2_before_starting(
        self, tmp_path, capsys, command
    ):
        rules = tmp_path / "rules.json"
        rules.write_text("{broken")
        code = main([*command, "--slo-rules", str(rules)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --slo-rules:")
        assert captured.out == ""  # refused before any daemon started

    def test_simulate_missing_slo_rules_exits_2(self, tmp_path, capsys):
        code = main(
            ["simulate", "--jobs", "5", "--machines", "1", "--seed", "7",
             "--slo-rules", str(tmp_path / "absent.json")]
        )
        assert code == 2
        assert "error: --slo-rules:" in capsys.readouterr().err

    def test_compare_watchdog_prints_per_policy_lines(self, capsys):
        code = main(
            ["compare", "--jobs", "5", "--machines", "1", "--seed", "7",
             "--watchdog"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for name in ("BF", "FCFS", "TOPO-AWARE", "TOPO-AWARE-P",
                     "TOPO-AWARE-PM"):
            assert f"[{name}] slo_alerts_fired: 0" in out


@pytest.fixture
def daemon(tmp_path):
    """An in-process scheduler service behind its HTTP face."""
    from repro.service import SchedulerService, ServiceServer
    from repro.topology.builders import cluster

    service = SchedulerService(
        cluster(2), "TOPO-AWARE", store_path=str(tmp_path / "svc.db")
    )
    with service, ServiceServer(service) as server:
        yield service, server.url


def refused_url() -> str:
    """A loopback URL nothing listens on."""
    import socket

    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    return f"http://127.0.0.1:{port}"


class TestServeSignals:
    def test_idle_serve_exits_within_100ms_of_sigterm(self, tmp_path):
        """An idle ``repro serve`` stops as soon as SIGTERM arrives: the
        accept loop does not wait out a poll, and the signal handler
        takes no lock the main thread may hold.  The daemon idles past
        several of its main loop's 0.5 s waits first, so the signal
        lands at an arbitrary point of one.  The clock stops at the
        daemon's last line, before the interpreter's teardown."""
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--machines", "2",
             "--port", "0", "--store", str(tmp_path / "svc.db")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        watchdog = threading.Timer(30, proc.kill)
        watchdog.start()
        try:
            assert "listening on" in proc.stdout.readline()
            time.sleep(1.2)
            sent = time.monotonic()
            proc.send_signal(signal.SIGTERM)
            stopped = any(
                line.startswith("scheduler service stopped") for line in proc.stdout
            )
            elapsed = time.monotonic() - sent
            out, err = proc.communicate(timeout=10)
        finally:
            watchdog.cancel()
            proc.kill()
        assert proc.returncode == 0, err
        assert stopped, out
        assert elapsed < 0.1


class TestDaemonClientVerbs:
    def manifest(self, tmp_path):
        path = tmp_path / "jobs.json"
        dump_manifest(table1_jobs()[:3], path)
        return path

    def test_submit_then_status(self, daemon, tmp_path, capsys):
        service, url = daemon
        service.pause()
        assert main(["submit", str(self.manifest(tmp_path)), "--url", url]) == 0
        out = capsys.readouterr().out
        ids = [job.job_id for job in table1_jobs()[:3]]
        assert out.splitlines() == [f"{j}: SUBMITTED" for j in ids]
        assert main(["status", "--url", url]) == 0
        out = capsys.readouterr().out
        assert out.startswith("3 job(s), queue depth 3 [paused]")
        assert main(["status", "--url", url, "--job", ids[0]]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == f"{ids[0]}: SUBMITTED"
        assert "arrival" in out

    def test_status_of_an_unknown_job_exits_1(self, daemon, capsys):
        _, url = daemon
        assert main(["status", "--url", url, "--job", "nope"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_cancel(self, daemon, tmp_path, capsys):
        service, url = daemon
        service.pause()
        assert main(["submit", str(self.manifest(tmp_path)), "--url", url]) == 0
        job_id = table1_jobs()[0].job_id
        capsys.readouterr()
        assert main(["cancel", job_id, "--url", url]) == 0
        assert capsys.readouterr().out == (
            f"{job_id}: cancellation requested (was SUBMITTED)\n"
        )
        assert main(["cancel", "nope", "--url", url]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_replay_live(self, daemon, capsys):
        _, url = daemon
        code = main(["replay", "--url", url, "--jobs", "3", "--seed", "1",
                     "--live"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("replayed 3 submissions")
        assert "terminal states: FINISHED=3" in out

    def test_replay_with_every_submission_rejected_exits_0(self, daemon, capsys):
        _, url = daemon
        argv = ["replay", "--url", url, "--jobs", "3", "--seed", "1"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0  # nothing accepted, so nothing to wait for
        captured = capsys.readouterr()
        assert "rejected: duplicate=3" in captured.out
        assert captured.err == ""

    def test_top_once(self, daemon, capsys):
        _, url = daemon
        assert main(["top", "--url", url, "--once"]) == 0
        assert url in capsys.readouterr().out

    @pytest.mark.parametrize("verb", [
        ["top", "--once"], ["submit", "MANIFEST"], ["cancel", "a"], ["status"],
        ["replay", "--jobs", "2"],
    ])
    def test_refused_port_exits_2(self, verb, tmp_path, capsys):
        argv = [str(self.manifest(tmp_path)) if a == "MANIFEST" else a
                for a in verb]
        assert main([*argv, "--url", refused_url()]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: daemon unreachable") and err.count("\n") == 1

    @pytest.mark.parametrize("verb", ["submit", "replay"])
    def test_missing_manifest_exits_2(self, verb, tmp_path, capsys):
        absent = str(tmp_path / "absent.json")
        assert main([verb, absent, "--url", refused_url()]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("verb", [
        ["top", "--once"], ["submit", "MANIFEST"], ["cancel", "a"], ["status"],
    ])
    def test_url_without_scheme_exits_2(self, verb, tmp_path, capsys):
        argv = [str(self.manifest(tmp_path)) if a == "MANIFEST" else a
                for a in verb]
        assert main([*argv, "--url", "127.0.0.1:8642"]) == 2
        err = capsys.readouterr().err
        assert err == "error: unsupported daemon url '127.0.0.1:8642'\n"
