"""What each entry point imports, checked in a fresh interpreter.

A batch simulation imports only what it runs: the package ``__init__``s
re-export lazily, so loading the simulator does not load the metrics
exposition, the trace profiler or the figure code.  Nothing is deferred
past the point a program is ready, either: ``Simulator.run`` and a
serving daemon import no module of their own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: the packages whose re-exports resolve on first use
LAZY_PACKAGES = (
    "repro", "repro.obs", "repro.analysis", "repro.topology", "repro.workload",
    "repro.sim", "repro.service",
)

#: what the batch path must never load
BATCH_UNUSED = (
    "repro.obs.metrics", "repro.obs.export", "repro.obs.profile",
    "repro.obs.io", "repro.analysis.figures", "repro.analysis.tables",
    "repro.topology.discovery", "repro.workload.manifest",
    "repro.sim.runner", "repro.sim.trace",
)


def run_fresh(script: str, timeout: float = 120.0):
    """Run ``script`` in a new interpreter; return its last stdout line
    parsed as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True, text=True, timeout=timeout,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_batch_worker_imports_skip_obs_exposition_and_figures():
    loaded = run_fresh("""
        import json, sys
        from repro.analysis.bench import RECORD_FIELDS
        from repro.analysis.scenarios import scenario2_jobs
        from repro.schedulers import make_scheduler
        from repro.sim.engine import Simulator
        from repro.sim.metrics import summarize
        from repro.topology.builders import cluster
        print(json.dumps(sorted(sys.modules)))
    """)
    assert not set(BATCH_UNUSED) & set(loaded)
    # numpy is paid for before the run, never inside it
    assert "numpy" in loaded


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_exported_name_resolves(package):
    out = run_fresh(f"""
        import importlib, json
        pkg = importlib.import_module({package!r})
        names = list(pkg.__all__)
        resolved = [name for name in names if getattr(pkg, name) is not None]
        star = {{}}
        exec("from {package} import *", star)
        print(json.dumps({{"names": names, "resolved": resolved,
                          "star": sorted(n for n in star if n in names)}}))
    """)
    assert out["names"] and out["resolved"] == out["names"]
    assert out["star"] == sorted(out["names"])


def test_unknown_names_still_raise():
    out = run_fresh("""
        import json
        import repro, repro.obs
        missing = []
        for mod in (repro, repro.obs):
            try:
                getattr(mod, "no_such_name")
            except AttributeError:
                missing.append(mod.__name__)
        from repro.obs import trace
        print(json.dumps({"missing": missing, "trace": trace.__name__}))
    """)
    assert out == {"missing": ["repro", "repro.obs"], "trace": "repro.obs.trace"}


def test_daemon_skips_the_stdlib_http_stack():
    """``repro serve`` reads its own HTTP: neither the stdlib server and
    client nor the email parser behind their headers is loaded."""
    loaded = run_fresh("""
        import json, sys
        import repro.cli, repro.service.daemon
        print(json.dumps(sorted(sys.modules)))
    """)
    assert not {"http.server", "http.client", "email.parser"} & set(loaded)
    assert "repro.service.driver" not in loaded


def test_simulator_run_imports_nothing():
    """A small Fig. 11-style run and a small preempting (PM) run: every
    module the run needs was imported before it started."""
    out = run_fresh("""
        import json, random, sys
        from repro.analysis.scenarios import scenario2_jobs
        from repro.schedulers import make_scheduler
        from repro.sim.engine import Simulator
        from repro.topology.builders import cluster
        from repro.workload.job import BatchClass, Job, ModelType

        def contended(n):
            rng = random.Random(7)
            jobs, t = [], 0.0
            for i in range(n):
                t += 7.0 * rng.uniform(0.5, 1.5)
                gpus = rng.choice((1, 2, 4))
                batch = BatchClass.from_index(rng.randrange(4))
                jobs.append(Job(
                    f"job{i}", rng.choice(list(ModelType)),
                    batch.representative_batch, gpus, min_utility=0.5,
                    arrival_time=t, iterations=rng.randrange(2000, 9000),
                    priority=1 if rng.random() < 0.3 else 0,
                ))
            return jobs

        out = {}
        for name, topo, policy, jobs in (
            ("fig11", cluster(30), "TOPO-AWARE-P", scenario2_jobs(120, 30, seed=1)),
            ("pm", cluster(3), "TOPO-AWARE-PM", contended(60)),
        ):
            sim = Simulator(topo, make_scheduler(policy), jobs)
            before = set(sys.modules)
            result = sim.run()
            out[name] = {
                "new": sorted(set(sys.modules) - before),
                "jobs": len(result.records),
                "preemptions": sum(r.preemptions for r in result.records),
            }
        print(json.dumps(out))
    """)
    assert out["fig11"] == {"new": [], "jobs": 120, "preemptions": 0}
    assert out["pm"]["new"] == [] and out["pm"]["jobs"] == 60
    assert out["pm"]["preemptions"] > 0  # the PM path really ran


def test_daemon_imports_nothing_after_healthz(tmp_path):
    """``repro serve``: once ``/healthz`` answers, serving every route
    (reads, submit, a cancel and an eviction through the engine,
    pause/resume, the event stream) imports no further module."""
    out = run_fresh(f"""
        import json, os, signal, socket, sys, threading, time
        import http.client, urllib.error, urllib.request
        from repro.cli import main
        from repro.service import daemon

        SERVICE = []
        started = daemon.SchedulerService.start

        def start(self):
            SERVICE.append(self)
            return started(self)

        daemon.SchedulerService.start = start
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            PORT = s.getsockname()[1]
        result = {{}}

        def call(method, path, body=None):
            data = None if body is None else json.dumps(body).encode()
            req = urllib.request.Request(
                "http://127.0.0.1:%d%s" % (PORT, path), data=data,
                method=method, headers={{"Content-Type": "application/json"}})
            try:
                with urllib.request.urlopen(req, timeout=10) as resp:
                    return resp.status
            except urllib.error.HTTPError as exc:
                exc.read()
                return exc.code

        def drive():
            try:
                while True:
                    try:
                        if call("GET", "/healthz") == 200:
                            break
                    except OSError:
                        time.sleep(0.05)
                before = set(sys.modules)
                svc = SERVICE[0]
                job = {{"id": "a", "model": "alexnet", "batch_size": 4,
                       "num_gpus": 2, "iterations": 4000}}
                codes = [call("POST", "/pause", {{}}), call("POST", "/submit", job)]
                svc.drain()
                svc.sim.step()  # "a" is RUNNING, its finish still pending
                codes += [call("POST", "/evict", {{"id": "a"}}),
                          call("POST", "/submit", dict(job, id="b")),
                          call("POST", "/cancel", {{"id": "b"}}),
                          call("POST", "/resume", {{}})]
                svc.drain()
                for path in ("/jobs", "/jobs/a", "/state", "/metrics",
                             "/alerts", "/timeseries", "/cluster",
                             "/decisions", "/explain/a"):
                    codes.append(call("GET", path))
                conn = http.client.HTTPConnection("127.0.0.1", PORT, timeout=10)
                conn.request("GET", "/events")
                resp = conn.getresponse()
                codes.append(resp.status)
                resp.fp.readline()
                conn.close()
                result["codes"] = codes
                result["states"] = {{j: s.value for j, s in svc.lifecycle.states().items()}}
                result["new"] = sorted(set(sys.modules) - before)
            finally:
                os.kill(os.getpid(), signal.SIGTERM)

        threading.Thread(target=drive, daemon=True).start()
        code = main(["serve", "--machines", "2", "--port", str(PORT),
                     "--store", {str(tmp_path / "svc.db")!r},
                     "--decisions-out", {str(tmp_path / "rec.jsonl")!r},
                     "--watchdog"])
        print(json.dumps(dict(result, exit=code)))
    """)
    assert out["exit"] == 0
    assert out["codes"] == [200, 202] + [202] * 3 + [200] + [200] * 10
    assert out["states"] == {"a": "FINISHED", "b": "CANCELLED"}
    assert out["new"] == []
