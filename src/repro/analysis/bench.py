"""The record contract: which per-job outputs two runs must share.

Every bit-identity check of the repository — the fast-path A/B tests,
the daemon-replay equivalence, the oracle tests, the decision-round
gates in ``benchmarks/perf/test_decision_rounds.py`` and the pinned
record digests of ``perfbench`` — compares :data:`RECORD_FIELDS` with
``==``: bit-identical floats, no tolerance.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.sim.records import SimulationResult

#: every measured per-job output of a run (``perfbench`` builds its
#: pinned digests from exactly these, in this order)
RECORD_FIELDS = (
    "arrival",
    "placed_at",
    "finished_at",
    "gpus",
    "utility",
    "p2p",
    "solo_exec_time",
    "ideal_exec_time",
    "postponements",
    "unplaceable",
    "restarts",
)

#: the fields :func:`first_record_difference` compares: the contract
#: plus what cancellation, preemption and migration leave on a record
COMPARED_FIELDS = RECORD_FIELDS + ("cancelled_at", "preemptions", "migrations")


def first_record_difference(
    a: SimulationResult, b: SimulationResult
) -> str | None:
    """The first way the records of two runs differ, or ``None`` when
    they match: their number, then their job order, then each record's
    :data:`COMPARED_FIELDS` compared with ``==``."""
    if len(a.records) != len(b.records):
        return f"{len(a.records)} records against {len(b.records)}"
    for ra, rb in zip(a.records, b.records):
        if ra.job.job_id != rb.job.job_id:
            return f"record order diverges at {ra.job.job_id}/{rb.job.job_id}"
        for name in COMPARED_FIELDS:
            va, vb = getattr(ra, name), getattr(rb, name)
            if va != vb:
                return f"{ra.job.job_id}.{name}: {va!r} != {vb!r}"
    return None
