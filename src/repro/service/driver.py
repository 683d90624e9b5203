"""Trace replay through the service API (the ``repro replay`` verb).

Pushes a job trace at the daemon the way a bursty client population
would: every job becomes one ``POST /submit`` over a keep-alive
HTTP/1.1 connection, wall-clock submission latency is sampled
client-side, and the driver optionally waits for the whole trace to
reach a terminal state.

Two modes:

* **paused** (default) — ``POST /pause`` first, submit the full trace,
  ``POST /resume``: the engine then drains the burst in virtual-time
  order, which makes daemon output comparable to a one-shot
  ``repro simulate`` of the same manifest (the batch-equivalence
  guarantee);
* **live** (``pause=False``) — submissions race the running engine;
  arrival times in the simulated past are clamped to the virtual
  present.

The driver is deliberately a pure HTTP client (stdlib only): it
exercises exactly the surface an external user sees, so its
throughput number (``ReplayReport.rate_per_s``) measures the real
admission path — parse, admission check, sqlite journal, inbox push —
not an in-process shortcut.
"""

from __future__ import annotations

import http.client
import json
import time
from dataclasses import dataclass, field
from typing import Sequence
from urllib.parse import urlsplit

from repro.workload.job import Job
from repro.workload.manifest import job_to_dict


class ReplayError(RuntimeError):
    """The daemon answered in a way the driver cannot continue from."""


@dataclass
class ReplayReport:
    """What one replay measured."""

    submitted: int = 0
    rejected: dict[str, int] = field(default_factory=dict)
    wall_s: float = 0.0
    #: client-observed wall latency of each accepted submission
    latencies_s: list[float] = field(default_factory=list)
    completed: bool = False  # every submitted job reached terminal state
    final_states: dict[str, str] = field(default_factory=dict)

    @property
    def rate_per_s(self) -> float:
        return self.submitted / self.wall_s if self.wall_s > 0 else 0.0

    def latency_quantile(self, q: float) -> float:
        if not self.latencies_s:
            return 0.0
        ordered = sorted(self.latencies_s)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    def summary(self) -> str:
        lines = [
            f"replayed {self.submitted} submissions in {self.wall_s:.3f}s "
            f"({self.rate_per_s:.0f}/s)",
            f"submit latency p50={self.latency_quantile(0.5) * 1e3:.2f}ms "
            f"p99={self.latency_quantile(0.99) * 1e3:.2f}ms",
        ]
        if self.rejected:
            rejected = ", ".join(
                f"{reason}={n}" for reason, n in sorted(self.rejected.items())
            )
            lines.append(f"rejected: {rejected}")
        if self.final_states:
            counts: dict[str, int] = {}
            for state in self.final_states.values():
                counts[state] = counts.get(state, 0) + 1
            states = ", ".join(
                f"{s}={n}" for s, n in sorted(counts.items())
            )
            lines.append(
                f"terminal states: {states}"
                if self.completed
                else f"states at timeout: {states}"
            )
        return "\n".join(lines)


class _Client:
    """Minimal keep-alive JSON client over one stdlib connection."""

    def __init__(self, base_url: str, timeout_s: float = 10.0) -> None:
        parts = urlsplit(base_url)
        if parts.scheme != "http" or not parts.netloc:
            raise ReplayError(f"unsupported daemon url {base_url!r}")
        self._conn = http.client.HTTPConnection(
            parts.netloc, timeout=timeout_s
        )

    def request(
        self, method: str, path: str, body: dict | None = None
    ) -> tuple[int, dict]:
        payload = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if payload else {}
        try:
            self._conn.request(method, path, body=payload, headers=headers)
            response = self._conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self._conn.close()
            raise ReplayError(f"daemon unreachable: {exc}") from exc
        try:
            doc = json.loads(raw) if raw else {}
        except ValueError:
            doc = {}
        return response.status, doc

    def close(self) -> None:
        self._conn.close()


def replay_trace(
    jobs: Sequence[Job],
    base_url: str,
    *,
    pause: bool = True,
    priority: int = 0,
    wait: bool = True,
    timeout_s: float = 120.0,
    poll_interval_s: float = 0.05,
) -> ReplayReport:
    """Submit a trace through the daemon API; see the module docstring."""
    report = ReplayReport()
    client = _Client(base_url)
    try:
        if pause:
            status, _ = client.request("POST", "/pause")
            if status != 200:
                raise ReplayError(f"POST /pause answered {status}")
        submitted_ids: list[str] = []
        t0 = time.perf_counter()
        for job in jobs:
            body = job_to_dict(job)
            if priority:
                body["priority"] = priority
            t_submit = time.perf_counter()
            status, doc = client.request("POST", "/submit", body)
            latency = time.perf_counter() - t_submit
            if status == 202:
                report.submitted += 1
                report.latencies_s.append(latency)
                submitted_ids.append(job.job_id)
            else:
                reason = doc.get("rejected") or doc.get("error") or str(status)
                report.rejected[reason] = report.rejected.get(reason, 0) + 1
        report.wall_s = time.perf_counter() - t0
        if pause:
            status, _ = client.request("POST", "/resume")
            if status != 200:
                raise ReplayError(f"POST /resume answered {status}")
        if wait:  # with nothing accepted, nothing is left to wait for
            report.completed = not submitted_ids or _wait_terminal(
                client, submitted_ids, report, timeout_s, poll_interval_s
            )
    finally:
        client.close()
    return report


def _wait_terminal(
    client: _Client,
    job_ids: list[str],
    report: ReplayReport,
    timeout_s: float,
    poll_interval_s: float,
) -> bool:
    """Poll ``GET /jobs`` until every submitted id is terminal."""
    terminal = {"FINISHED", "CANCELLED", "FAILED"}
    wanted = set(job_ids)
    deadline = time.monotonic() + timeout_s
    while True:
        status, doc = client.request("GET", "/jobs")
        if status != 200:
            raise ReplayError(f"GET /jobs answered {status}")
        states = doc.get("jobs", {})
        report.final_states = {
            j: states.get(j, "?") for j in job_ids
        }
        if all(states.get(j) in terminal for j in wanted):
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(poll_interval_s)
