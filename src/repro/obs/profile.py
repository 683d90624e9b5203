"""Trace analytics: Perfetto export and a critical-path profiler.

Span records journaled by ``--decisions-out`` are exact but unreadable
at fig11 scale (10k jobs -> hundreds of thousands of spans).  Two views
fix that:

* :func:`to_chrome_trace` converts spans to the Chrome Trace Event
  format (``{"traceEvents": [...]}`` with complete ``"X"`` events),
  which loads directly into Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing`` — ``repro trace export --format chrome``;
* :func:`profile_spans` aggregates the span forest into per-phase
  self/total time tables (``sched.propose`` → ``drb.*`` → ``fm.*`` →
  ``utility.*``), per-job decision critical paths, and the top-N
  slowest decision rounds — ``repro trace profile``.

Self time is a span's duration minus the summed durations of its
direct children; totals are plain duration sums, so a parent's total
double-counts its children by design (as in any profiler's
inclusive/exclusive split).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

#: Chrome Trace Event JSON works in microseconds
_US = 1e6


# ---------------------------------------------------------------------------
# Chrome Trace Event export
# ---------------------------------------------------------------------------

def to_chrome_trace(spans: Sequence[dict], *, pid: int = 1) -> dict:
    """Render spans as a Chrome Trace Event document.

    Every span becomes one complete event (``ph="X"``) with
    microsecond ``ts``/``dur``, its attributes under ``args`` and its
    dotted-name prefix as the category.  The recorder's stack
    discipline guarantees proper nesting, so a single synthetic thread
    per policy renders the full tree; a thread-name metadata event
    labels it.  The span records of a ``compare`` journal carry their
    policy's ``scheduler``, and each policy gets its own process id
    (``pid``, ``pid + 1``, ...): its recorder had its own clock origin,
    so its spans must not nest into another policy's.  Events are
    sorted by ``ts`` within each process (monotonic — Perfetto and
    ``chrome://tracing`` both require it).
    """
    pids: dict[str | None, int] = {}
    for span in spans:
        pids.setdefault(span.get("scheduler"), pid + len(pids))
    events: list[dict] = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": run_pid,
            "tid": 1,
            "args": {
                "name": f"{scheduler} decision path" if scheduler
                else "scheduler decision path"
            },
        }
        for scheduler, run_pid in (pids or {None: pid}).items()
    ]
    for span in sorted(
        spans,
        key=lambda s: (pids[s.get("scheduler")], s["start_s"], s["span_id"]),
    ):
        name = span["name"]
        events.append(
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": span["start_s"] * _US,
                "dur": max(0.0, span["dur_s"]) * _US,
                "pid": pids[span.get("scheduler")],
                "tid": 1,
                "args": dict(span.get("attrs", {})),
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro trace export", "spans": len(spans)},
    }


def write_chrome_trace(spans: Sequence[dict], path: Path | str) -> Path:
    path = Path(path)
    path.write_text(json.dumps(to_chrome_trace(spans)) + "\n")
    return path


# ---------------------------------------------------------------------------
# profiler
# ---------------------------------------------------------------------------

@dataclass
class PhaseStats:
    """Aggregate timing for one span name across the whole trace."""

    name: str
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    max_s: float = 0.0

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0


@dataclass
class RoundProfile:
    """One ``sched.propose`` root: a single decision for a single job."""

    job_id: str
    start_s: float
    dur_s: float
    outcome: str
    #: (name, dur_s) pairs from root to leaf along the slowest chain
    critical_path: tuple[tuple[str, float], ...] = ()


@dataclass
class TraceProfile:
    """Everything ``repro trace profile`` reports."""

    phases: list[PhaseStats] = field(default_factory=list)
    rounds: list[RoundProfile] = field(default_factory=list)
    #: per-job total decision time (sum over that job's rounds)
    per_job_s: dict[str, float] = field(default_factory=dict)
    span_count: int = 0

    def slowest_rounds(self, n: int = 10) -> list[RoundProfile]:
        return sorted(self.rounds, key=lambda r: -r.dur_s)[:n]


def _critical_path(
    span: dict, children: dict[int | None, list[dict]]
) -> tuple[tuple[str, float], ...]:
    """Root-to-leaf chain maximising cumulative duration."""
    path = [(span["name"], span["dur_s"])]
    node = span
    while True:
        kids = children.get(node["span_id"])
        if not kids:
            return tuple(path)
        node = max(kids, key=lambda s: (s["dur_s"], -s["span_id"]))
        path.append((node["name"], node["dur_s"]))


def profile_spans(spans: Sequence[dict], job_id: str | None = None) -> TraceProfile:
    """Aggregate a span list into a :class:`TraceProfile`.

    ``job_id`` restricts the per-round/per-job sections to one job;
    the per-phase table always covers the whole trace (phase costs are
    only meaningful in aggregate).
    """
    children: dict[int | None, list[dict]] = {}
    for span in spans:
        children.setdefault(span.get("parent_id"), []).append(span)

    phases: dict[str, PhaseStats] = {}
    for span in spans:
        stats = phases.get(span["name"])
        if stats is None:
            stats = phases[span["name"]] = PhaseStats(span["name"])
        dur = span["dur_s"]
        stats.count += 1
        stats.total_s += dur
        stats.max_s = max(stats.max_s, dur)
        child_time = sum(
            c["dur_s"] for c in children.get(span["span_id"], ())
        )
        stats.self_s += max(0.0, dur - child_time)

    rounds: list[RoundProfile] = []
    per_job: dict[str, float] = {}
    for span in spans:
        if span["name"] != "sched.propose":
            continue
        jid = span["attrs"].get("job_id", "?")
        per_job[jid] = per_job.get(jid, 0.0) + span["dur_s"]
        if job_id is not None and jid != job_id:
            continue
        rounds.append(
            RoundProfile(
                job_id=jid,
                start_s=span["start_s"],
                dur_s=span["dur_s"],
                outcome=span["attrs"].get("outcome", ""),
                critical_path=_critical_path(span, children),
            )
        )
    rounds.sort(key=lambda r: r.start_s)
    if job_id is not None:
        per_job = {job_id: per_job.get(job_id, 0.0)}

    ordered = sorted(phases.values(), key=lambda p: -p.total_s)
    return TraceProfile(
        phases=ordered,
        rounds=rounds,
        per_job_s=per_job,
        span_count=len(spans),
    )


# ---------------------------------------------------------------------------
# text rendering (the CLI body)
# ---------------------------------------------------------------------------

def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f}"


def format_profile(profile: TraceProfile, *, top: int = 10) -> str:
    """Human-readable tables for ``repro trace profile``."""
    if profile.span_count == 0:
        return "(empty trace: no spans)"
    lines: list[str] = []
    lines.append(f"trace: {profile.span_count} spans, "
                 f"{len(profile.rounds)} decision rounds, "
                 f"{len(profile.per_job_s)} jobs")
    lines.append("")
    lines.append("per-phase aggregate (sorted by total):")
    lines.append(
        f"  {'phase':<20} {'calls':>7} {'total ms':>10} {'self ms':>10} "
        f"{'mean ms':>9} {'max ms':>9}"
    )
    for phase in profile.phases:
        lines.append(
            f"  {phase.name:<20} {phase.count:>7} {_ms(phase.total_s):>10} "
            f"{_ms(phase.self_s):>10} {_ms(phase.mean_s):>9} "
            f"{_ms(phase.max_s):>9}"
        )
    slowest = profile.slowest_rounds(top)
    if slowest:
        lines.append("")
        lines.append(f"top {len(slowest)} slowest decision rounds:")
        for i, rnd in enumerate(slowest, start=1):
            chain = " > ".join(
                f"{name} {_ms(dur)}ms" for name, dur in rnd.critical_path
            )
            outcome = f" [{rnd.outcome}]" if rnd.outcome else ""
            lines.append(
                f"  {i:>2}. {rnd.job_id:<10} +{rnd.start_s:.6f}s "
                f"{_ms(rnd.dur_s):>9} ms{outcome}"
            )
            lines.append(f"      critical path: {chain}")
    heaviest = sorted(profile.per_job_s.items(), key=lambda kv: -kv[1])[:top]
    if heaviest:
        lines.append("")
        lines.append(f"top {len(heaviest)} jobs by total decision time:")
        for jid, total in heaviest:
            lines.append(f"  {jid:<12} {_ms(total):>10} ms")
    return "\n".join(lines)
