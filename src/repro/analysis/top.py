"""``repro top``: an htop-style terminal dashboard for a live daemon.

Pure rendering: every function here takes the JSON documents the
introspection endpoints serve (``/state``, ``/cluster``,
``/timeseries``, ``/alerts``, ``/jobs``) and returns a string — no
sockets, no timing, so the whole dashboard is unit-testable from
dicts.  The CLI polls the endpoints on an interval and repaints with
ANSI cursor-home/clear sequences.

Layout::

    repro top — TOPO-AWARE @ http://127.0.0.1:8642      phase: running
    sim 412.5s   rounds 213   queue 7   running 12   gpus 38/40 (95%)
    queue   ▁▂▄▆███▅▃▂  (0..9)
    running ▃▄▅▆▆▇▇███  (0..12)
    util    ▅▆▇▇██████  (0.32..0.95)
    cluster (machine: occupancy · fragmentation · link load)
      m0 [████████░░] 0.80  frag 0.20  link 1.50
      m1 [██████████] 1.00  frag 0.00  link 2.00
      ...
    alerts: 1 active
      ALERT [critical] queue-wait-p95-high: queue_wait_p95 > 3600 ...
"""

from __future__ import annotations

import math

#: eight-level block ramp used for sparklines
SPARK_BLOCKS = "▁▂▃▄▅▆▇█"

#: five-level ramp used for heatmap cells (fraction -> char)
HEAT_BLOCKS = " ░▒▓█"

#: ANSI repaint prefix: cursor home + clear-to-end (less flicker than
#: a full screen wipe)
CLEAR = "\x1b[H\x1b[J"


def sparkline(values, width: int = 40) -> str:
    """Render a series as Unicode block characters, newest right.

    NaNs render as spaces; a flat series renders mid-ramp so it stays
    visible.  ``values`` longer than ``width`` keep the newest points.
    """
    vals = [float(v) for v in values][-width:]
    if not vals:
        return ""
    finite = [v for v in vals if not math.isnan(v)]
    if not finite:
        return " " * len(vals)
    lo, hi = min(finite), max(finite)
    span = hi - lo
    out = []
    for v in vals:
        if math.isnan(v):
            out.append(" ")
        elif span <= 0:
            out.append(SPARK_BLOCKS[3])
        else:
            idx = int((v - lo) / span * (len(SPARK_BLOCKS) - 1))
            out.append(SPARK_BLOCKS[idx])
    return "".join(out)


def heat_cell(fraction: float) -> str:
    """One heatmap character for an occupancy fraction in [0, 1]."""
    if math.isnan(fraction):
        return "?"
    clamped = min(1.0, max(0.0, fraction))
    return HEAT_BLOCKS[round(clamped * (len(HEAT_BLOCKS) - 1))]


def occupancy_bar(fraction: float, width: int = 10) -> str:
    """A fixed-width fill bar (``[████░░░░░░]`` style, no brackets)."""
    if math.isnan(fraction):
        return "?" * width
    filled = round(min(1.0, max(0.0, fraction)) * width)
    return "█" * filled + "░" * (width - filled)


def _series_values(timeseries_doc: dict, name: str) -> list[float]:
    series = (timeseries_doc or {}).get("cluster", {}).get(name, {})
    return [point[1] for point in series.get("raw", [])]


def render_sparklines(timeseries_doc: dict, width: int = 40) -> list[str]:
    """Queue/running/utilization history lines from ``/timeseries``."""
    lines = []
    for label, name, fmt in (
        ("queue", "queue_depth", "g"),
        ("running", "running_jobs", "g"),
        ("util", "utilization", ".2f"),
    ):
        values = _series_values(timeseries_doc, name)
        if not values:
            continue
        lo, hi = min(values), max(values)
        lines.append(
            f"{label:>8} {sparkline(values, width)}  "
            f"({lo:{fmt}}..{hi:{fmt}})"
        )
    return lines


def render_heatmap(cluster_doc: dict, *, rows: int = 16,
                   width: int = 78) -> list[str]:
    """Per-machine occupancy/fragmentation/link-load lines.

    Up to ``rows`` machines get one annotated line each; larger fleets
    collapse into a compact grid of single heat cells (one character
    per machine) so a 1000-machine cluster still fits a terminal.
    """
    machines = (cluster_doc or {}).get("machines", {})
    if not machines:
        return ["  (no per-machine samples yet)"]
    names = sorted(machines)
    if len(names) <= rows:
        lines = []
        for name in names:
            doc = machines[name]
            occ = doc.get("occupancy", math.nan)
            frag = doc.get("fragmentation", math.nan)
            link = doc.get("link_load", math.nan)
            lines.append(
                f"  {name:>10} [{occupancy_bar(occ)}] {occ:4.2f}"
                f"  frag {frag:4.2f}  link {link:4.2f}"
            )
        return lines
    cells = "".join(
        heat_cell(machines[n].get("occupancy", math.nan)) for n in names
    )
    per_row = max(1, width - 4)
    grid = [
        "  " + cells[i:i + per_row] for i in range(0, len(cells), per_row)
    ]
    return [f"  {len(names)} machines (one cell each, occupancy):"] + grid


def render_alerts(alerts_doc: dict, *, limit: int = 5) -> list[str]:
    """Active-alert banner plus the most recent firings."""
    doc = alerts_doc or {}
    if not doc.get("enabled", False):
        return ["alerts: (no watchdog attached)"]
    active = doc.get("active", [])
    fired = doc.get("fired", [])
    lines = [
        f"alerts: {len(active)} active, {doc.get('fired_total', 0)} fired "
        f"({doc.get('rounds_evaluated', 0)} rounds evaluated)"
    ]
    for alert in fired[-limit:]:
        value = alert.get("value")
        shown = f"{value:.4g}" if isinstance(value, (int, float)) else "n/a"
        lines.append(
            f"  [{alert.get('severity')}] {alert.get('rule')}: "
            f"{alert.get('signal')} {alert.get('op')} "
            f"{alert.get('threshold')} (value {shown}) "
            f"round {alert.get('round')}"
        )
    return lines


def render_dashboard(
    docs: dict,
    *,
    url: str = "",
    width: int = 78,
) -> str:
    """The full ``repro top`` frame from endpoint documents.

    ``docs`` maps endpoint name (``state``, ``cluster``,
    ``timeseries``, ``alerts``) to its parsed JSON body; missing keys
    degrade to sensible placeholders, so a server without a
    time-series store or watchdog still renders.
    """
    state = docs.get("state") or {}
    phase = "idle"
    if state.get("finished"):
        phase = "finished"
    elif state.get("schema") is not None:
        phase = "running"
    scheduler = state.get("scheduler", "?")
    header = f"repro top — {scheduler}" + (f" @ {url}" if url else "")
    lines = [
        f"{header:<{width - 16}}phase: {phase}",
        (
            f"sim {state.get('sim_time', 0.0):.1f}s"
            f"   rounds {state.get('decision_rounds', 0)}"
            f"   queue {state.get('queue_depth', 0)}"
            f"   running {len(state.get('running_jobs', []))}"
            f"   gpus {state.get('gpus_busy', 0)}"
            f"/{state.get('total_gpus', 0)}"
        ),
    ]
    spark = render_sparklines(docs.get("timeseries") or {}, width=width - 24)
    if spark:
        lines.append("")
        lines.extend(spark)
    lines.append("")
    lines.append("cluster (occupancy · fragmentation · link-sharing load)")
    lines.extend(render_heatmap(docs.get("cluster") or {}, width=width))
    lines.append("")
    lines.extend(render_alerts(docs.get("alerts") or {}))
    return "\n".join(lines)


__all__ = [
    "CLEAR",
    "heat_cell",
    "occupancy_bar",
    "render_alerts",
    "render_dashboard",
    "render_heatmap",
    "render_sparklines",
    "sparkline",
]
