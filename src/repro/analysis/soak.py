"""``repro soak``: replay a bursty trace against a live daemon.

The ROADMAP's missing piece: Figs. 10–11 are time-series claims, so
the service needs a harness that runs for *wall-clock* minutes under
bursty load while the windowed SLO watchdog and the continuous-
telemetry history watch — and that emits a machine-checkable verdict
CI can gate on.

:func:`run_soak` drives a daemon over its real HTTP API (either an
external ``--url`` or an in-process daemon it starts itself), firing a
burst of generated jobs every ``burst_every_s`` seconds and closing an
observation *window* every ``window_s`` seconds.  Each window polls
``/jobs``, ``/state`` and ``/alerts`` and rules **clean** when no
alert is active and none fired inside the window, **violations**
otherwise.  The run's verdict is clean iff every window is.

The artifact is a schema-versioned ``SOAK_*.json``: a dataclass
``as_dict()`` with platform info, written by :func:`write_soak`,
asserted by ``scripts/soak_smoke.py`` in CI.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path

#: artifact document version (bump on breaking shape changes)
SOAK_SCHEMA_VERSION = 1


@dataclass
class SoakWindow:
    """One observation window's verdict."""

    index: int
    t_s: float  # wall-clock offset from soak start at window close
    submitted: int  # cumulative accepted submissions
    queue_depth: int
    running_jobs: int
    utilization: float
    alerts_active: list = field(default_factory=list)
    alerts_fired_total: int = 0
    fired_delta: int = 0
    verdict: str = "clean"

    def as_dict(self) -> dict:
        return {
            "window": self.index,
            "t_s": round(self.t_s, 3),
            "submitted": self.submitted,
            "queue_depth": self.queue_depth,
            "running_jobs": self.running_jobs,
            "utilization": round(self.utilization, 6),
            "alerts_active": list(self.alerts_active),
            "alerts_fired_total": self.alerts_fired_total,
            "fired_delta": self.fired_delta,
            "verdict": self.verdict,
        }


@dataclass
class SoakResult:
    """Everything one soak invocation measured."""

    scheduler: str
    url: str
    minutes: float
    window_s: float
    jobs_per_burst: int
    burst_every_s: float
    seed: int
    watchdog_enabled: bool = False
    bursts: int = 0
    submitted: int = 0
    rejected: int = 0
    windows: list = field(default_factory=list)
    timeseries_samples: int = 0
    timeseries_machines: int = 0
    alerts_fired_total: int = 0
    verdict: str = "clean"

    def as_dict(self) -> dict:
        return {
            "schema": SOAK_SCHEMA_VERSION,
            "soak": {
                "scheduler": self.scheduler,
                "url": self.url,
                "minutes": self.minutes,
                "window_s": self.window_s,
                "jobs_per_burst": self.jobs_per_burst,
                "burst_every_s": self.burst_every_s,
                "seed": self.seed,
            },
            "platform": {
                "python": platform.python_version(),
                "machine": platform.machine(),
                "system": platform.system(),
            },
            "watchdog_enabled": self.watchdog_enabled,
            "bursts": self.bursts,
            "submitted": self.submitted,
            "rejected": self.rejected,
            "windows": [w.as_dict() for w in self.windows],
            "timeseries_samples": self.timeseries_samples,
            "timeseries_machines": self.timeseries_machines,
            "alerts_fired_total": self.alerts_fired_total,
            "verdict": self.verdict,
        }


def _get(client, path: str) -> dict:
    status, doc = client.request("GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return doc


def _close_window(
    client, index: int, t_s: float, submitted: int, fired_before: int
) -> SoakWindow:
    jobs_doc = _get(client, "/jobs")
    state_doc = _get(client, "/state")
    alerts_doc = _get(client, "/alerts")
    total = state_doc.get("total_gpus") or 0
    busy = state_doc.get("gpus_busy") or 0
    active = list(alerts_doc.get("active", []))
    fired_total = int(alerts_doc.get("fired_total", 0))
    delta = fired_total - fired_before
    window = SoakWindow(
        index=index,
        t_s=t_s,
        submitted=submitted,
        queue_depth=int(jobs_doc.get("queue_depth", 0)),
        running_jobs=len(state_doc.get("running_jobs", [])),
        utilization=busy / total if total else 0.0,
        alerts_active=active,
        alerts_fired_total=fired_total,
        fired_delta=delta,
        verdict="clean" if not active and delta == 0 else "violations",
    )
    return window


def run_soak(
    *,
    url: str | None = None,
    minutes: float = 5.0,
    window_s: float = 10.0,
    jobs_per_burst: int = 20,
    burst_every_s: float = 5.0,
    seed: int = 42,
    arrival_rate: float = 2.2,
    topo_factory=None,
    scheduler: str = "TOPO-AWARE",
    rules=None,
    progress=None,
) -> SoakResult:
    """Soak a daemon for ``minutes`` of wall clock; return the verdict.

    With ``url`` the harness drives an already-running daemon (start
    it with ``repro serve --watchdog`` so windows carry real SLO
    verdicts).  Without, it builds an in-process daemon — windowed
    watchdog and time-series history attached — and drives it over the
    same HTTP path, so both modes exercise identical plumbing.
    """
    from repro.service.driver import _Client
    from repro.workload.generator import GeneratorConfig, WorkloadGenerator

    emit = progress if progress is not None else (lambda line: None)
    service = server = None
    if url is None:
        from repro.obs.alerts import DEFAULT_RULES
        from repro.service import SchedulerService, ServiceServer
        from repro.topology.builders import cluster

        topo = (topo_factory or (lambda: cluster(5)))()
        service = SchedulerService(
            topo,
            scheduler,
            store_path=":memory:",
            watchdog_rules=rules if rules is not None else DEFAULT_RULES,
        ).start()
        server = ServiceServer(service, port=0).start()
        url = server.url
        emit(f"soak: started in-process daemon ({scheduler}) at {url}")

    client = _Client(url)
    result = SoakResult(
        scheduler=scheduler,
        url=url,
        minutes=minutes,
        window_s=window_s,
        jobs_per_burst=jobs_per_burst,
        burst_every_s=burst_every_s,
        seed=seed,
    )
    cfg = GeneratorConfig(arrival_rate_per_min=arrival_rate)
    try:
        result.watchdog_enabled = bool(
            _get(client, "/alerts").get("enabled", False)
        )
        start = time.monotonic()
        deadline = start + minutes * 60.0
        next_burst = start
        next_window = start + window_s
        fired_before = int(
            _get(client, "/alerts").get("fired_total", 0)
        )
        while True:
            now = time.monotonic()
            if now >= deadline:
                break
            if now >= next_burst:
                burst = result.bursts
                jobs = WorkloadGenerator(
                    cfg, seed=seed + burst
                ).generate(jobs_per_burst, id_prefix=f"soak{burst}-job")
                from repro.workload.manifest import job_to_dict

                for job in jobs:
                    status, _doc = client.request(
                        "POST", "/submit", job_to_dict(job)
                    )
                    if status == 202:
                        result.submitted += 1
                    else:
                        result.rejected += 1
                result.bursts += 1
                next_burst += burst_every_s
            if now >= next_window:
                window = _close_window(
                    client,
                    len(result.windows),
                    now - start,
                    result.submitted,
                    fired_before,
                )
                fired_before = window.alerts_fired_total
                result.windows.append(window)
                emit(
                    f"soak: window {window.index} t={window.t_s:.1f}s "
                    f"queue={window.queue_depth} "
                    f"running={window.running_jobs} "
                    f"util={window.utilization:.2f} "
                    f"verdict={window.verdict}"
                )
                next_window += window_s
            time.sleep(
                min(0.05, max(0.0, min(next_burst, next_window) - now))
            )
        # terminal window: whatever ran since the last close
        window = _close_window(
            client,
            len(result.windows),
            time.monotonic() - start,
            result.submitted,
            fired_before,
        )
        result.windows.append(window)
        emit(
            f"soak: window {window.index} t={window.t_s:.1f}s "
            f"queue={window.queue_depth} running={window.running_jobs} "
            f"util={window.utilization:.2f} verdict={window.verdict}"
        )
        ts_doc = _get(client, "/timeseries")
        result.timeseries_samples = int(ts_doc.get("samples", 0))
        result.timeseries_machines = len(ts_doc.get("machines", {}))
        result.alerts_fired_total = window.alerts_fired_total
        result.verdict = (
            "clean"
            if all(w.verdict == "clean" for w in result.windows)
            else "violations"
        )
        return result
    finally:
        client.close()
        if server is not None:
            server.stop()
        if service is not None:
            service.stop()


def write_soak(result: SoakResult, path: Path) -> Path:
    """Write the ``SOAK_*.json`` artifact (directories get a default
    file name)."""
    path = Path(path)
    if path.is_dir():
        path = path / f"SOAK_{result.scheduler.replace('-', '_')}.json"
    path.write_text(json.dumps(result.as_dict(), indent=2) + "\n")
    return path


def format_soak(result: SoakResult) -> str:
    """One human-readable summary block for the CLI."""
    lines = [
        f"soak: {result.minutes:g} min against {result.url} "
        f"({result.scheduler})",
        f"  bursts {result.bursts}  submitted {result.submitted}  "
        f"rejected {result.rejected}",
        f"  windows {len(result.windows)}  "
        f"alerts fired {result.alerts_fired_total}  "
        f"watchdog {'on' if result.watchdog_enabled else 'OFF'}",
        f"  timeseries samples {result.timeseries_samples} across "
        f"{result.timeseries_machines} machines",
    ]
    for w in result.windows:
        flag = "" if w.verdict == "clean" else "  <-- " + ",".join(
            w.alerts_active
        )
        lines.append(
            f"  window {w.index:>3}  t={w.t_s:7.1f}s  "
            f"queue={w.queue_depth:<5d} running={w.running_jobs:<4d} "
            f"util={w.utilization:4.2f}  {w.verdict}{flag}"
        )
    lines.append(f"  verdict: {result.verdict}")
    return "\n".join(lines)


__all__ = [
    "SOAK_SCHEMA_VERSION",
    "SoakResult",
    "SoakWindow",
    "format_soak",
    "run_soak",
    "write_soak",
]
