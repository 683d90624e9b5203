"""Render record journals for ``repro explain``.

The recorder (:mod:`repro.obs.provenance`) captures *what* the
scheduler knew and when; this module turns those records into the
terminal story a human asks for: "why was job X placed there, and
where did its time go?", "why did it wait three rounds?", "what did
round 7 decide?".  Everything here is pure formatting over already-
validated record dicts — no simulation state, no engine imports.

A ``repro compare`` journal holds one run per policy, each numbering
its ``seq`` and ``round`` from the start; every view here renders each
run on its own, under a ``### <scheduler>`` heading when there are
several.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.obs.provenance import render_runs


def _fmt_float(value, digits: int = 4) -> str:
    if value is None:
        return "-"
    return f"{value:.{digits}f}"


def _pool_summary(pools: dict | None) -> str:
    """One line for the filter_hosts report attached to a decision."""
    if not pools:
        return "candidate pools: (not recorded)"
    pruned = pools.get("pruned") or {}
    prune_bits = ", ".join(
        f"{name}={count}" for name, count in pruned.items() if count
    )
    sizes = pools.get("pool_sizes") or []
    kind = "spanning pool" if pools.get("spanning") else "single-node pools"
    line = (
        f"candidate pools: {pools.get('eligible', 0)}/"
        f"{pools.get('machines', 0)} machines eligible ({kind}; "
        f"gpu counts {sizes or '[]'})"
    )
    if prune_bits:
        line += f"; pruned: {prune_bits}"
    prefilter = pools.get("prefilter")
    if prefilter:
        line += (
            f"\n  prefilter: probed {prefilter.get('considered', 0)} host(s) "
            f"(top-k={prefilter.get('k')}), skipped "
            f"{prefilter.get('pruned', 0)} capacity-eligible host(s) the "
            f"tightest-fit scan could never pick"
        )
    return line


def _memo_summary(memo: dict | None) -> str | None:
    if not memo:
        return None
    if not memo.get("enabled"):
        return "placement memo: disabled"
    return "placement memo: hit" if memo.get("hit") else "placement memo: miss"


def _utility_lines(utility: dict | None) -> list[str]:
    """The per-term breakdown: value, normalisation bounds, contribution."""
    if not utility:
        return []
    lines = [f"utility {_fmt_float(utility.get('value'))} ="]
    for name, term in (utility.get("terms") or {}).items():
        lo, hi = term.get("bounds", (None, None))
        lines.append(
            f"  {name:<14} value={_fmt_float(term.get('value'))} "
            f"norm={_fmt_float(term.get('norm'))} "
            f"bounds=[{_fmt_float(lo)}, {_fmt_float(hi)}] "
            f"weight={_fmt_float(term.get('weight'), 2)} "
            f"contribution={_fmt_float(term.get('contribution'))}"
        )
    return lines


def _slo_summary(slo: dict | None) -> list[str]:
    if not slo:
        return []
    lines = [
        "slo check: "
        f"utility {_fmt_float(slo.get('utility'))} >= "
        f"min_utility {_fmt_float(slo.get('min_utility'))} -> "
        f"{'ok' if slo.get('utility_ok') else 'FAIL'}; "
        f"p2p required={slo.get('requires_p2p')} "
        f"got={slo.get('solution_p2p')} -> "
        f"{'ok' if slo.get('p2p_ok') else 'FAIL'}"
    ]
    if slo.get("failed"):
        lines.append(f"  failing predicate: {slo['failed']}")
    if slo.get("override"):
        lines.append(f"  anti-starvation override: {slo['override']}")
    return lines


def _capacity_summary(capacity: dict | None) -> str | None:
    if not capacity:
        return None
    bound = "max_free" if capacity.get("single_node") else "total_free"
    return (
        f"capacity prune: needs more than {bound}="
        f"{capacity.get(bound)} free GPUs "
        f"(max_free={capacity.get('max_free')}, "
        f"total_free={capacity.get('total_free')})"
    )


def _evict_summary(evict: dict | None) -> list[str]:
    """The utility-delta justification attached to an evict verdict."""
    if not evict:
        return []
    kind = evict.get("kind", "preempt")
    lines = []
    if kind == "preempt":
        lines.append(
            f"preempted {evict.get('victim')} "
            f"(priority {evict.get('victim_priority')} < "
            f"{evict.get('job_priority')})"
        )
    else:
        lines.append(f"migrated {evict.get('victim')} to a better allocation")
    lines.append(
        f"  gain {_fmt_float(evict.get('gain'))} = "
        f"new utility {_fmt_float(evict.get('job_utility'))} - "
        f"victim utility {_fmt_float(evict.get('victim_utility'))} - "
        f"migration penalty {_fmt_float(evict.get('migration_penalty'))} "
        f"(> min gain {_fmt_float(evict.get('min_gain'))})"
    )
    return lines


def format_decision(record: dict) -> str:
    """Multi-line rendering of one decision record."""
    header = (
        f"[round {record.get('round', '?')} t={_fmt_float(record.get('t'), 1)}] "
        f"{record.get('scheduler', '?')} -> {record['verdict'].upper()}"
    )
    if record.get("reason"):
        header += f" ({record['reason']})"
    lines = [
        header,
        f"  job {record.get('job_id')} wants {record.get('num_gpus')} GPUs; "
        f"{record.get('queued')} queued; "
        f"postponements so far: {record.get('postponements', 0)}",
    ]
    cap = _capacity_summary(record.get("capacity"))
    if cap:
        lines.append(f"  {cap}")
    memo = _memo_summary(record.get("memo"))
    if memo:
        lines.append(f"  {memo}")
    lines.append(f"  {_pool_summary(record.get('pools'))}")
    candidates = record.get("candidates")
    if candidates:
        lines.append(f"  mappings evaluated: {len(candidates)}")
        for cand in candidates:
            machines = ",".join(cand.get("machines") or [])
            lines.append(
                f"    [{machines}] pool_gpus={cand.get('pool_gpus')} "
                f"utility={_fmt_float(cand.get('utility'))} "
                f"p2p={cand.get('p2p')}"
            )
    lines.extend(f"  {ln}" for ln in _utility_lines(record.get("utility")))
    lines.extend(f"  {ln}" for ln in _slo_summary(record.get("slo")))
    lines.extend(f"  {ln}" for ln in _evict_summary(record.get("evict")))
    if record.get("gpus") is not None:
        lines.append(
            f"  placement: gpus={record['gpus']} p2p={record.get('p2p')}"
        )
    return "\n".join(lines)


def format_job_record(record: dict) -> str:
    """One line for a job's lifecycle (``job`` kind) record."""
    line = (
        f"[t={_fmt_float(record.get('t'), 1)}] job {record.get('job_id')} "
        f"-> {record.get('state')}"
    )
    if record.get("gpus") is not None:
        line += (
            f" on gpus={record['gpus']} p2p={record.get('p2p')} utility="
            f"{_fmt_float(record.get('utility'))} after "
            f"{record.get('postponements', 0)} postponement(s)"
        )
    if record.get("slo_violation"):
        line += (
            f" (SLO missed: min_utility "
            f"{_fmt_float(record.get('min_utility'))})"
        )
    if record.get("restart"):
        line += " (requeued after a machine failure)"
    if record.get("evict_reason"):
        line += f" (evicted: {record['evict_reason']})"
    return line


def format_job_explanation(job_id: str, records: Iterable[dict]) -> str:
    """One job's story in journal order: its lifecycle records, its
    decisions, and for each decision the time its ``sched.propose``
    span took (when the journal holds spans)."""
    text = render_runs(records, lambda run: _job_story(job_id, run))
    return text if text is not None else f"no decision records for job {job_id!r}"


def _job_story(job_id: str, records: list[dict]) -> str | None:
    # the span that timed a decision: same job and round
    propose_ms = {
        (r["attrs"].get("job_id"), r["round"]): r["dur_s"] * 1e3
        for r in records
        if r.get("kind") == "span" and r.get("name") == "sched.propose"
    }
    story = [
        r for r in records
        if r.get("kind") in ("job", "decision") and r.get("job_id") == job_id
    ]
    if not story:
        return None
    story.sort(key=lambda r: r["seq"])
    decisions = [r for r in story if r["kind"] == "decision"]
    header = f"job {job_id}: {len(decisions)} decision(s)"
    if decisions:
        header += f", final verdict {decisions[-1]['verdict']}"
    parts = [header]
    for record in story:
        if record["kind"] == "job":
            parts.append(format_job_record(record))
            continue
        text = format_decision(record)
        ms = propose_ms.get((job_id, record.get("round")))
        if ms is not None and record["verdict"] != "evict":
            text += f"\n  decision time: sched.propose {ms:.3f} ms"
        parts.append(text)
    return "\n\n".join(parts)


def format_round_explanation(round_no: int, records: Iterable[dict]) -> str:
    """Every decision one round made, in decision order."""
    text = render_runs(records, lambda run: _round_story(round_no, run))
    return text if text is not None else f"no decision records for round {round_no}"


def _round_story(round_no: int, records: list[dict]) -> str | None:
    decisions = [
        r
        for r in records
        if r.get("kind") == "decision" and r.get("round") == round_no
    ]
    if not decisions:
        return None
    decisions.sort(key=lambda r: r.get("seq", 0))
    placed = sum(1 for r in decisions if r["verdict"] == "placed")
    parts = [
        f"round {round_no}: {len(decisions)} decision(s), {placed} placed"
    ]
    parts.extend(format_decision(r) for r in decisions)
    return "\n\n".join(parts)


_TABLE_HEADER = (
    f"{'seq':>5} {'round':>5} {'t':>8} {'job':<12} "
    f"{'gpus':>4} {'verdict':<9} {'reason':<16} {'utility':>8}"
)


def decision_summary_table(records: Sequence[dict]) -> str:
    """Compact one-row-per-decision table (the `repro explain` index)."""
    text = render_runs(records, _decision_table)
    return text if text is not None else _TABLE_HEADER


def _decision_table(records: list[dict]) -> str | None:
    decisions = [r for r in records if r.get("kind") == "decision"]
    if not decisions:
        return None
    lines = [_TABLE_HEADER]
    for r in sorted(decisions, key=lambda r: r.get("seq", 0)):
        utility = (r.get("utility") or {}).get("value")
        lines.append(
            f"{r.get('seq', 0):>5} {r.get('round', 0):>5} "
            f"{r.get('t', 0.0):>8.1f} {str(r.get('job_id', '')):<12} "
            f"{r.get('num_gpus', 0):>4} {r['verdict']:<9} "
            f"{str(r.get('reason') or '-'):<16} "
            f"{_fmt_float(utility):>8}"
        )
    return "\n".join(lines)
