"""Decision provenance: the program's one record stream.

The scheduler pipeline (Algorithm 1) is a chain of judgments — filter
hosts, DRB-map, score with the utility function, enforce or postpone.
:class:`DecisionRecorder` captures one schema-versioned record per
scheduling decision:

* candidate pool sizes and prune reasons from ``filter_hosts`` and the
  scheduler's O(1) capacity pruning (see :data:`PRUNE_REASONS`;
  includes the top-k candidate prefilter's skip tally);
* memo hit/miss provenance from ``PlacementEngine.propose``;
* the per-term utility breakdown (communication cost, interference,
  fragmentation, each with its normalisation bounds and weighted
  contribution) from :func:`repro.core.utility.utility_breakdown`;
* the enforce/postpone/no-fit verdict with the SLO-check inputs from
  ``TopoAwareScheduler._acceptable`` (which predicate failed, and any
  anti-starvation override).

Around the decisions it keeps every other fact a run produces, each as
a record kind (:data:`RECORD_KINDS`): job state changes (``job``),
round boundaries (``round``), machine failures (``failure``), watchdog
alert transitions (``alert``), the run envelope (``run_start`` /
``run_end``) and, when the recorder is installed as the
:mod:`repro.obs.trace` sink, the timing spans of the decision path
(``span``, stamped with the round they ran in).  Every record names
its policy (``scheduler``), and :func:`split_runs` cuts a ``compare``
journal back into its per-policy runs.  A Server-Sent-Events client
gets the live feed without polling ``/jobs``; ``repro explain`` and
``repro trace`` read the same file back through :func:`read_records`.

Tap-only by construction: the recorder only ever *receives* data the
hot path already computed (the provenance dicts it is handed are built
solely when a recorder is attached), so results are bit-identical with
or without it — pinned by the fast-path A/B equivalence tests — and
the per-decision cost is pinned below 3 % of a bare Scenario 1 run by
``benchmarks/test_obs_overhead.py``.

Storage is a bounded ring of entries ``[seq, kind, payload, line]``.
The write side captures only a tuple of references (~1 µs: the hot
path must stay under 3 % of a bare run); the record dict and its JSON
line are materialised lazily on first read and cached back into the
entry, so the ``data:`` payload an SSE client streams is the *same
string object* as the journaled ``--decisions-out`` record with the
same ``seq`` — byte-match by construction.  Deferral is safe because
every reference captured is frozen at decision time: the provenance
and SLO dicts are built fresh per decision and never touched again by
the scheduler, ``PlacementSolution`` is a frozen dataclass, closed
spans are never reopened, and the engine's topology/parameters (all
``utility_breakdown`` reads) are static for the run.  Overflow evicts
the oldest entry and counts evicted decisions in ``dropped_total``
(surfaced as the ``repro_decisions_dropped_total`` metric family) so
provenance loss is visible rather than silent.  Span records go to the
journal only, never to the ring, so tracing cannot evict a decision.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from pathlib import Path
from typing import Callable, Iterable

from repro.core.utility import SLO_EPS, utility_breakdown
from repro.obs import trace as _trace
from repro.obs.io import open_text
from repro.obs.trace import SpanRecorder
from repro.sim.hooks import BaseObserver

#: version stamped on every record ("schema" field)
PROVENANCE_SCHEMA_VERSION = 1

#: verdicts a decision record may carry; ``"evict"`` marks a
#: preemption/migration decision — the record's ``evict`` dict carries
#: the utility-delta justification (victim, penalty, net gain)
DECISION_VERDICTS = ("placed", "postponed", "no-fit", "evict")

#: prune reasons a decision's candidate-pool report may tally, i.e.
#: the keys of ``pools["pruned"]``.  ``"prefilter"`` counts
#: capacity-eligible hosts the top-k candidate prefilter never probed
#: (skipped by the capacity-dominance argument, not by a constraint
#: check); the others count hosts a constraint actively rejected.
#: When the prefilter ran, the report also carries a ``"prefilter"``
#: sub-dict (``k`` / ``considered`` / ``pruned``) so ``repro explain``
#: can show why hosts were excluded from DRB evaluation.
PRUNE_REASONS = (
    "free-gpus",
    "bus-bandwidth",
    "anti-collocation",
    "prefilter",
)

#: fields every record carries: the envelope.  ``scheduler`` names the
#: policy whose run wrote the record, so the several runs a ``compare``
#: journal holds stay apart (see :func:`split_runs`).
ENVELOPE = ("schema", "seq", "kind", "scheduler")

#: record kind -> fields a record of that kind must carry beyond the
#: envelope (checked by the reader; extra fields are allowed)
RECORD_KINDS: dict[str, tuple[str, ...]] = {
    "decision": ("round", "t", "job_id", "verdict"),
    "job": ("t", "job_id", "state"),
    "round": ("round", "t", "placed", "queued"),
    "failure": ("t", "machine", "victims"),
    "alert": ("round", "t", "rule", "signal", "op", "value", "threshold",
              "severity", "state"),
    "run_start": ("t", "jobs", "total_gpus"),
    "run_end": ("t", "makespan", "finished", "unplaceable"),
    "span": ("round", "span_id", "parent_id", "name", "start_s", "dur_s",
             "attrs"),
}


class DecisionRecorder(BaseObserver):
    """Bounded flight recorder for scheduler decisions + run records.

    ``ring_size`` bounds the replay buffer (oldest entries evicted);
    ``journal=True`` additionally keeps every record unbounded for
    ``--decisions-out`` export (span records are kept there only);
    ``scheduler`` is the policy every record names (filled in by
    :meth:`bind_simulation` or the first decision when left empty);
    ``registry`` (optional) registers
    the ``repro_decisions_recorded_total`` /
    ``repro_decisions_dropped_total`` counter families.

    Thread model: single writer — all writes happen on the
    simulation/loop thread (the only place observers run), and every
    container operation on the write path is atomic under the GIL, so
    the hot path takes no lock.  SSE handler threads snapshot the ring
    with ``list()`` and only block (in :meth:`wait_beyond`) on the
    condition variable; the writer touches it solely when a waiter is
    registered.

    Visibility: readers see records up to a *visible* seq.  Normally
    it follows every write; between :meth:`hold` and :meth:`publish`
    it stays put, so a writer that must not expose records before some
    commit (the service daemon holds each loop iteration until its
    journal commit) publishes them all at once, or never.
    """

    #: duck-typed flag the simulation kernel looks for when deciding
    #: whether to thread a recorder through the SchedulingContext
    wants_decision_provenance = True

    def __init__(
        self,
        *,
        ring_size: int = 4096,
        journal: bool = False,
        registry=None,
        scheduler: str = "",
    ) -> None:
        if ring_size < 1:
            raise ValueError("ring_size must be >= 1")
        self.ring_size = ring_size
        self.scheduler = scheduler
        #: ring entries are mutable ``[seq, kind, payload, line]`` lists;
        #: ``line`` starts as None and caches the JSON on first read
        self._ring: deque[list] = deque()
        self._cond = threading.Condition()
        self._waiters = 0
        self._seq = 0
        #: readers see entries with seq <= _visible; _ring_visible is
        #: the newest such ring entry's seq (spans are journal-only)
        self._visible = 0
        self._ring_visible = 0
        self._held = False
        self._round = 0
        self.recorded_total = 0
        self.dropped_total = 0
        self._journal: list[list] | None = [] if journal else None
        self._spans = _SpanJournal(self)
        self._recorded_ctr = None
        self._dropped_ctr = None
        if registry is not None:
            self._recorded_ctr = registry.counter(
                "repro_decisions_recorded_total",
                "Scheduling decisions captured by the provenance recorder",
                ("scheduler",),
            )
            self._dropped_ctr = registry.counter(
                "repro_decisions_dropped_total",
                "Decision records evicted from the provenance ring buffer",
                ("scheduler",),
            )

    # ------------------------------------------------------------------
    # the write side (simulation/loop thread only)
    # ------------------------------------------------------------------
    def _append(self, kind: str, payload: tuple) -> None:
        # single-writer hot path: no lock — every container operation
        # here is atomic under the GIL, readers only snapshot.  The
        # condition variable is touched solely when an SSE reader is
        # parked in wait_beyond (a missed-registration race costs that
        # reader one wait timeout, nothing more).
        self._seq += 1
        entry = [self._seq, kind, payload, None]
        ring = self._ring
        ring.append(entry)
        if len(ring) > self.ring_size:
            old = ring.popleft()
            if old[1] == "decision":
                self.dropped_total += 1
                if self._dropped_ctr is not None:
                    self._dropped_ctr.inc(scheduler=self.scheduler)
        if kind == "decision":
            self.recorded_total += 1
            if self._recorded_ctr is not None:
                self._recorded_ctr.inc(scheduler=self.scheduler)
        if self._journal is not None:
            self._journal.append(entry)
        if not self._held:
            self._visible = self._ring_visible = self._seq
            if self._waiters:
                with self._cond:
                    self._cond.notify_all()

    def hold(self) -> None:
        """Stop exposing new records until :meth:`publish`."""
        self._held = True

    def publish(self) -> None:
        """Expose every record written so far and stop holding."""
        self._held = False
        self._visible = self._seq
        ring = self._ring
        self._ring_visible = ring[-1][0] if ring else 0
        if self._waiters:
            with self._cond:
                self._cond.notify_all()

    def decision(
        self,
        *,
        t: float,
        scheduler: str,
        job,
        queued: int,
        verdict: str,
        reason: str | None = None,
        solution=None,
        engine=None,
        propose: dict | None = None,
        slo: dict | None = None,
        postponements: int = 0,
        capacity: dict | None = None,
        evict: dict | None = None,
    ) -> None:
        """Record one scheduling decision.

        ``propose`` is the provenance dict ``PlacementEngine.propose``
        filled (memo hit/miss, candidate pools, per-pool candidates);
        ``slo`` is the detail dict ``_acceptable`` filled (predicate
        inputs and any anti-starvation override); ``capacity`` carries
        the O(1) pruning inputs when the job never reached the engine;
        ``evict`` carries the preemption/migration justification
        (victim id, both utilities, migration penalty, net gain) for
        ``verdict="evict"`` records.

        Hot-path cost is one tuple capture plus a ring append; the
        record dict (including the utility breakdown) and its JSON
        line are built lazily on first read.  Callers must therefore
        hand over dicts they will not mutate afterwards — the
        scheduler builds ``propose``/``slo``/``capacity`` fresh per
        decision, which is what makes the deferral sound.
        """
        if verdict not in DECISION_VERDICTS:
            raise ValueError(f"unknown verdict {verdict!r}")
        if not self.scheduler:
            self.scheduler = scheduler
        self._append(
            "decision",
            (
                self._round,
                t,
                scheduler,
                job.job_id,
                job.num_gpus,
                queued,
                verdict,
                reason,
                propose,
                slo,
                postponements,
                capacity,
                solution,
                engine,
                evict,
            ),
        )

    # ------------------------------------------------------------------
    # SimObserver hooks: job-state-change + round-boundary events
    # ------------------------------------------------------------------
    def on_arrival(self, t, job):
        self._append("job", (t, job.job_id, "QUEUED", None, None, False))

    def on_place(self, t, job, solution, solo_exec_time, postponements):
        self._append(
            "job",
            (t, job.job_id, "RUNNING", solution, postponements, False, None,
             job.min_utility),
        )

    def on_finish(self, t, job, gpus):
        self._append("job", (t, job.job_id, "FINISHED", None, None, False))

    def on_requeue(self, t, job):
        self._append("job", (t, job.job_id, "QUEUED", None, None, True))

    def on_evict(self, t, job, gpus, reason):
        # cancel is terminal; preempt/migrate put the job back in play
        state = "CANCELLED" if reason == "cancel" else "QUEUED"
        self._append("job", (t, job.job_id, state, None, None, False, reason))

    def on_failure(self, t, machine, victims):
        self._append("failure", {
            "t": t, "machine": machine, "victims": [j.job_id for j in victims],
        })

    def on_decision_round(self, t, placed, queued, elapsed_s):
        # the round's wall time is journaled only while spans are
        # captured: a journal without spans stays deterministic
        elapsed = elapsed_s if _trace.ACTIVE is self else None
        self._append("round", (self._round, t, len(placed), queued, elapsed))
        self._round += 1

    # ------------------------------------------------------------------
    # the run envelope, alerts and spans
    # ------------------------------------------------------------------
    def bind_simulation(self, sim) -> None:
        """``Simulator.start`` wiring: open the run with a ``run_start``
        record (a daemon's run starts with ``jobs: 0``)."""
        if not self.scheduler:
            self.scheduler = sim.scheduler.name
        self._append("run_start", {
            "t": 0.0,
            "scheduler": sim.scheduler.name,
            "jobs": len(sim.jobs),
            "total_gpus": len(sim.topo.gpus()),
        })

    def finalize_result(self, result) -> None:
        """Runner wiring: close the run with a ``run_end`` record."""
        fields = {
            "t": result.makespan,
            "scheduler": result.scheduler_name,
            "makespan": result.makespan,
            "finished": sum(
                1 for r in result.records if r.finished_at is not None
            ),
            "unplaceable": sum(1 for r in result.records if r.unplaceable),
        }
        if result.placement_stats:
            fields["placement_cache"] = result.placement_stats
        if result.prefilter_stats:
            fields["prefilter"] = result.prefilter_stats
        self._append("run_end", fields)

    def alert(self, doc: dict) -> None:
        """Record one watchdog alert transition (firing or resolved);
        ``doc`` must not be mutated afterwards (it is read lazily)."""
        self._append("alert", doc)

    def span(self, name: str, **attrs):
        """Open a timing span: the recorder is a duck-typed
        :data:`repro.obs.trace.ACTIVE` sink.  Once closed, the span is
        journaled as a ``span`` record stamped with the current round;
        without a journal it is dropped."""
        return self._spans.span(name, **attrs)

    # ------------------------------------------------------------------
    # lazy materialisation (read threads; cached back into the entry)
    # ------------------------------------------------------------------
    def _line(self, entry: list) -> str:
        line = entry[3]
        if line is None:
            # a racing reader builds the same deterministic record, so
            # last-write-wins caching needs no lock
            line = json.dumps(self._build(entry), sort_keys=False)
            entry[3] = line
        return line

    def _build(self, entry: list) -> dict:
        seq, kind, payload = entry[0], entry[1], entry[2]
        record = {
            "schema": PROVENANCE_SCHEMA_VERSION,
            "seq": seq,
            "kind": kind,
            "scheduler": self.scheduler,
        }
        if kind == "decision":
            (
                round_no, t, scheduler, job_id, num_gpus, queued, verdict,
                reason, propose, slo, postponements, capacity, solution,
                engine, evict,
            ) = payload
            propose = propose or {}
            record.update(
                scheduler=scheduler,
                round=round_no,
                t=t,
                job_id=job_id,
                num_gpus=num_gpus,
                queued=queued,
                verdict=verdict,
                reason=reason,
                memo=propose.get("memo"),
                pools=propose.get("pools"),
                candidates=propose.get("candidates"),
                capacity=capacity,
                utility=None,
                slo=slo,
                gpus=None,
                p2p=None,
                postponements=postponements,
            )
            if evict is not None:
                record["evict"] = evict
            if solution is not None:
                record["gpus"] = sorted(solution.gpus)
                record["p2p"] = solution.p2p
                if engine is not None:
                    record["utility"] = utility_breakdown(
                        engine.topo,
                        len(solution.gpus),
                        solution.metrics,
                        engine.params,
                    )
        elif kind == "job":
            t, job_id, state, solution, postponements, restart, *rest = payload
            record.update(t=t, job_id=job_id, state=state)
            if solution is not None:
                record["gpus"] = sorted(solution.gpus)
                record["utility"] = solution.utility
                record["p2p"] = solution.p2p
                record["postponements"] = postponements
                min_utility = rest[1]
                if solution.utility < min_utility - SLO_EPS:
                    record["slo_violation"] = True
                    record["min_utility"] = min_utility
            if restart:
                record["restart"] = True
            if rest and rest[0] is not None:
                record["evict_reason"] = rest[0]
        elif kind == "round":
            round_no, t, n_placed, queued, elapsed_s = payload
            record.update(round=round_no, t=t, placed=n_placed, queued=queued)
            if elapsed_s is not None:
                record["elapsed_s"] = elapsed_s
        elif kind == "span":
            round_no, span = payload
            record["round"] = round_no
            record.update(span.to_dict())
        else:
            record.update(payload)
        return record

    # ------------------------------------------------------------------
    # the read side (HTTP/SSE threads, CLI, tests)
    # ------------------------------------------------------------------
    @property
    def last_seq(self) -> int:
        """Sequence number of the newest visible ring entry (0 when
        none)."""
        return self._ring_visible

    def counts(self) -> dict:
        return {"recorded": self.recorded_total, "dropped": self.dropped_total}

    @property
    def journal(self) -> list[str] | None:
        """Every kept record line (``None`` unless ``journal=True``)."""
        if self._journal is None:
            return None
        return [self._line(e) for e in self._visible_entries(self._journal)]

    def _visible_entries(self, entries) -> list[list]:
        """A snapshot of ``entries`` (ring or journal) cut at the
        visible seq.  ``list(deque)`` is one C-level call, so the
        snapshot is consistent without taking a lock."""
        visible = self._visible
        out = list(entries)
        if out and out[-1][0] > visible:
            out = [e for e in out if e[0] <= visible]
        return out

    def entries_after(self, cursor: int) -> list[tuple[int, str, str]]:
        """Visible ``(seq, kind, line)`` ring entries with ``seq >
        cursor`` (the SSE replay read)."""
        return [
            (e[0], e[1], self._line(e))
            for e in self._visible_entries(self._ring)
            if e[0] > cursor
        ]

    def wait_beyond(self, cursor: int, timeout: float) -> bool:
        """Block until a ring entry beyond ``cursor`` exists (or
        timeout)."""
        if self.last_seq > cursor:
            return True
        with self._cond:
            self._waiters += 1
            try:
                if self.last_seq > cursor:
                    return True
                return self._cond.wait(timeout)
            finally:
                self._waiters -= 1

    def decisions(self) -> list[dict]:
        """Decision records currently in the ring, oldest first (fresh
        parsed copies — callers may mutate them freely)."""
        return [
            json.loads(self._line(e))
            for e in self._visible_entries(self._ring)
            if e[1] == "decision"
        ]

    def for_job(self, job_id: str) -> list[dict]:
        """One job's decisions and evictions (the ``job`` records with
        an ``evict_reason``), journal if kept, else ring."""
        entries = self._ring if self._journal is None else self._journal
        return [
            json.loads(self._line(e))
            for e in self._visible_entries(entries)
            if (e[1] == "decision" and e[2][3] == job_id)
            or (
                e[1] == "job" and e[2][1] == job_id
                and len(e[2]) > 6 and e[2][6] is not None  # evict_reason
            )
        ]

    def write_journal(self, path: Path | str) -> Path:
        """Write the kept journal as JSONL (gzip for ``.gz``)."""
        if self._journal is None:
            raise ValueError("recorder was built without journal=True")
        path = Path(path)
        lines = self.journal
        with open_text(path, "w") as fp:
            for line in lines:
                fp.write(line + "\n")
        return path


class _SpanJournal(SpanRecorder):
    """A recorder's span stack: a closed span becomes a ``span`` record
    in the recorder's journal instead of staying in ``spans``."""

    def __init__(self, recorder: DecisionRecorder) -> None:
        super().__init__()
        self._recorder = recorder

    def _keep(self, span) -> None:
        pass

    def _close(self, span) -> None:
        super()._close(span)
        rec = self._recorder
        if rec._journal is not None:
            rec._seq += 1
            rec._journal.append([rec._seq, "span", (rec._round, span), None])
            if not rec._held:
                rec._visible = rec._seq


# ---------------------------------------------------------------------------
# reading journals back (`repro explain` and `repro trace`)
# ---------------------------------------------------------------------------

def validate_record(record: dict) -> dict:
    """Schema-check one record of any kind; returns it unchanged."""
    if not isinstance(record, dict):
        raise ValueError(
            f"record must be an object, got {type(record).__name__}"
        )
    if record.get("schema") != PROVENANCE_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported record schema {record.get('schema')!r} "
            f"(this reader understands {PROVENANCE_SCHEMA_VERSION})"
        )
    kind = record.get("kind")
    if kind not in RECORD_KINDS:
        raise ValueError(f"unknown record kind {kind!r}")
    missing = [f for f in (*ENVELOPE, *RECORD_KINDS[kind]) if f not in record]
    if missing:
        raise ValueError(f"{kind} record missing fields {missing}")
    if "t" in record and not isinstance(record["t"], (int, float)):
        raise ValueError(f"{kind} record field 't' must be numeric")
    if kind == "decision" and record["verdict"] not in DECISION_VERDICTS:
        raise ValueError(f"unknown verdict {record['verdict']!r}")
    return record


def read_records(path: Path | str) -> list[dict]:
    """Load a ``--decisions-out`` journal (``.jsonl`` or ``.jsonl.gz``),
    validating every line; errors name ``file:line``."""
    records: list[dict] = []
    with open_text(path) as fp:
        for lineno, line in enumerate(fp, start=1):
            if not line.strip():
                continue
            try:
                records.append(validate_record(json.loads(line)))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from None
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return records


def records_of(kind: str, records: Iterable[dict]) -> list[dict]:
    """Filter a record stream down to one kind."""
    return [r for r in records if r.get("kind") == kind]


def split_runs(records: Iterable[dict]) -> list[tuple[str, list[dict]]]:
    """Cut a record stream into its runs, ``(scheduler, records)`` in
    file order.  A run starts at each ``run_start`` record and wherever
    the ``scheduler`` changes: ``repro compare`` journals one run per
    policy into one file, and each run numbers its ``seq``, ``round``
    and ``span_id`` from the start, so readers must not mix them."""
    runs: list[tuple[str, list[dict]]] = []
    for record in records:
        scheduler = record.get("scheduler", "")
        if (
            not runs
            or record.get("kind") == "run_start"
            or scheduler != runs[-1][0]
        ):
            runs.append((scheduler, []))
        runs[-1][1].append(record)
    return runs


def render_runs(
    records: Iterable[dict], render: Callable[[list[dict]], str | None]
) -> str | None:
    """``render`` each run of a stream (:func:`split_runs`), under a
    ``### <scheduler>`` heading when there are several; runs it returns
    ``None`` for are left out (``None`` if that is all of them)."""
    runs = split_runs(records)
    sections = [(scheduler, render(run)) for scheduler, run in runs]
    sections = [(name, text) for name, text in sections if text is not None]
    if len(runs) == 1 or not sections:
        return sections[0][1] if sections else None
    return "\n\n".join(f"### {name}\n{text}" for name, text in sections)
