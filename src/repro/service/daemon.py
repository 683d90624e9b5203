"""The scheduler service daemon: one engine, one loop thread, HTTP API.

Threading model (the whole point of the design):

* **HTTP handler threads** never touch the simulation engine or the
  journal.  A submission is validated, admitted
  (:class:`~repro.service.queue.QueueManager`) and pushed onto the
  priority inbox; then the handler waits for the journal commit that
  covers it.  Reads are served from atomically published snapshots,
  the lifecycle table and the decision recorder — all of which show
  only committed state — and ``GET /jobs/<id>`` reads the engine's
  record only while the loop sits between two commits.
* **The scheduler loop thread** is the *only* mutator of the
  :class:`~repro.sim.engine.Simulator` and the *only* writer of the
  :class:`~repro.service.store.ServiceStore`.  Single-writer means the
  engine needs no locks and stays bit-identical with its one-shot
  batch mode.

Durability: each loop iteration is one sqlite transaction.  It journals
the submissions it pops from the inbox, feeds them to the engine,
applies cancels and evictions, steps the engine (journaling every
lifecycle hop the step makes, through the
:class:`~repro.service.statemachine.LifecycleTable`), and issues one
``COMMIT``.  Only then are the iteration's lifecycle moves, decision
records, ``/state`` snapshot and ``/timeseries`` sample published and
its submitters answered ``202`` — so "accepted" means durable and no
reader ever sees a state the journal lacks.  Submissions that arrive while an iteration runs
join the next one (group commit).  Two failures are defined:

* a submission row fails before the engine has seen the group: the
  transaction rolls back, every member is answered 503 and its
  reservation released, and the loop keeps running;
* a hop write or the ``COMMIT`` fails after the engine has moved: the
  service *fail-stops* — nothing of the iteration is published, its
  submitters and every later one are answered 503, as is every later
  cancel and eviction, ``GET /jobs/<id>`` serves only the committed
  state, ``/healthz`` answers 503 with the reason
  (:attr:`SchedulerService.failure`) and ``repro serve`` exits
  non-zero.  A restart recovers from the journal, which holds exactly
  what clients were told.

On restart the daemon re-admits every non-terminal journaled job, so a
killed daemon resumes with the queue it died with.

Pause/resume (``POST /pause`` / ``POST /resume``) stops *stepping*
while commands keep applying: submit a whole trace paused, resume, and
the engine drains it in virtual-time order — byte-for-byte the same
records a one-shot ``repro simulate`` of that trace produces (pinned
by the batch-equivalence golden test).
"""

from __future__ import annotations

import dataclasses
import json
import sqlite3
import threading
import time
from dataclasses import dataclass

from repro.obs.alerts import Watchdog
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import DecisionRecorder
from repro.obs.server import IntrospectionServer, Response, json_response
from repro.obs.state import SnapshotObserver, SnapshotPublisher
from repro.obs.telemetry import ServiceTelemetry, TelemetryObserver
from repro.obs.timeseries import TimeSeriesStore
from repro.schedulers import make_scheduler
from repro.schedulers.base import Scheduler
from repro.service.queue import AdmissionDecision, QueueManager
from repro.service.statemachine import JobState, LifecycleTable
from repro.service.store import ServiceStore
from repro.sim.engine import Simulator
from repro.sim.hooks import BaseObserver
from repro.sim.records import SimulationResult
from repro.topology.graph import TopologyGraph
from repro.workload.manifest import ManifestError, job_from_dict

#: how many inbox entries one loop iteration feeds before stepping —
#: bounds the latency between a burst and the first decision round
#: without letting a flood starve the event loop.
_APPLY_BATCH = 1024


@dataclass(frozen=True)
class SubmitResult:
    """What the API returns for one submission."""

    job_id: str
    decision: AdmissionDecision
    state: str | None  # lifecycle state right after admission


#: telemetry reason for an admitted submission the journal refused
JOURNAL_ERROR = "journal-error"


class JournalError(RuntimeError):
    """A request the journal will not hold.  An admitted submission
    that could not be journaled was withdrawn (no lifecycle entry, no
    inbox entry, id and depth budget freed); a cancel or eviction on a
    stopped or failed service was never queued."""

    def __init__(self, job_id: str, cause: BaseException) -> None:
        super().__init__(f"job {job_id!r} was not journaled: {cause}")
        self.job_id = job_id


class _Pending:
    """One submission handed to the scheduler loop: its HTTP thread
    waits on ``done`` for the commit that covers it; ``error`` is set
    when the submission was refused instead."""

    __slots__ = ("done", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.error: BaseException | None = None


class _LifecycleBridge(BaseObserver):
    """Feed engine lifecycle notifications into the state machine.

    Runs inside the loop thread (observers always do).  Uses
    ``advance_if`` for hops restart recovery may have fast-forwarded —
    e.g. the arrival notification of a job restored straight into
    ``QUEUED`` is a no-op, not an error.
    """

    def __init__(self, service: "SchedulerService") -> None:
        self._svc = service

    def on_arrival(self, t, job):
        self._svc.lifecycle.advance_if(job.job_id, JobState.QUEUED)

    def on_place(self, t, job, solution, solo_exec_time, postponements):
        # the kernel places and starts in one decision round; both
        # hops are recorded so the journal shows the full path
        self._svc.lifecycle.advance_if(job.job_id, JobState.PLACED)
        self._svc.lifecycle.advance_if(job.job_id, JobState.RUNNING)

    def on_finish(self, t, job, gpus):
        self._svc.lifecycle.advance_if(job.job_id, JobState.FINISHED)

    def on_requeue(self, t, job):
        self._svc.lifecycle.advance_if(job.job_id, JobState.QUEUED)

    def on_evict(self, t, job, gpus, reason):
        # preempt/migrate: the job leaves its GPUs but stays in play —
        # journal the RUNNING -> QUEUED hop (a migrated job's on_place
        # follows in the same round and advances it straight back).
        # Cancel is NOT handled here: _apply_cancels owns the
        # CANCELLED transition.
        if reason in ("preempt", "migrate"):
            self._svc.lifecycle.advance_if(job.job_id, JobState.QUEUED)


class SchedulerService:
    """Owns the engine, the loop thread, and the service bookkeeping."""

    def __init__(
        self,
        topo: TopologyGraph,
        scheduler: Scheduler | str = "TOPO-AWARE",
        *,
        store_path: str = ":memory:",
        max_queue_depth: int = 100_000,
        registry: MetricsRegistry | None = None,
        extra_observers: tuple = (),
        decision_journal: bool = False,
        watchdog_rules=None,
    ) -> None:
        if isinstance(scheduler, str):
            scheduler = make_scheduler(scheduler)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.telemetry = ServiceTelemetry(self.registry)
        self.store = ServiceStore(
            store_path, observe_write=self.telemetry.journal_write
        )
        self.queue = QueueManager(
            len(topo.gpus()), max_depth=max_queue_depth
        )
        # a published terminal state frees the job's backlog budget
        self.lifecycle = LifecycleTable(
            journal=self._journal_hook, on_terminal=self.queue.retire
        )
        self.publisher = SnapshotPublisher()
        #: the continuous-telemetry history behind /timeseries and
        #: /cluster, sampled at each /state publish
        self.timeseries = TimeSeriesStore()
        self._snapshots = SnapshotObserver(
            self.publisher,
            scheduler=scheduler.name,
            job_states_source=self.lifecycle.states,
            timeseries=self.timeseries,
        )
        sim_telemetry = TelemetryObserver(
            self.registry, scheduler=scheduler.name
        )
        # the decision flight recorder backs /decisions, /explain/<id>
        # and the /events SSE stream; ring-bounded so a long-running
        # daemon's memory stays flat
        self.decision_recorder = DecisionRecorder(
            ring_size=4096,
            journal=decision_journal,
            registry=self.registry,
            scheduler=scheduler.name,
        )
        # the SLO watchdog reads the telemetry observer's counters and
        # the bound cluster; windowed rules let a soak run page on
        # trends (growing queues, decaying utilization)
        self.watchdog = (
            Watchdog(
                self.registry,
                watchdog_rules,
                scheduler=scheduler.name,
            )
            if watchdog_rules is not None
            else None
        )
        watchdog_taps = (self.watchdog,) if self.watchdog else ()
        self.sim = Simulator(
            topo,
            scheduler,
            [],
            observers=[
                _LifecycleBridge(self),
                sim_telemetry,
                *watchdog_taps,
                self._snapshots,
                self.decision_recorder,
                *extra_observers,
            ],
        )
        self._cv = threading.Condition()
        #: held by the loop from its first engine call of an iteration
        #: through that iteration's publish, so an engine read taken
        #: under it (``job_status``) sees the last committed state
        self._commit_lock = threading.Lock()
        self._pending: dict[str, _Pending] = {}
        self._cancels: list[str] = []
        self._evictions: list[str] = []
        self._paused = False
        self._stop = False
        self._idle = True
        #: why submissions are refused (None while the loop runs)
        self._down: str | None = "the scheduler loop is not running"
        #: the fail-stop reason, once a journal failure stopped the loop
        self.failure: str | None = None
        self._thread: threading.Thread | None = None
        self._recovered = self._recover()
        if self._recovered:
            # the loop has restored work to chew through: drain() must
            # not report idle until it has
            self._idle = False

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def _journal_hook(
        self, job_id: str, frm: JobState | None, to: JobState
    ) -> None:
        # the submission write covers the creation row (frm None)
        if frm is not None:
            self.store.journal_transition(job_id, frm, to)

    def _recover(self) -> int:
        """Re-admit every non-terminal journaled job; returns count."""
        recovered = 0
        for stored in self.store.recover():
            self.lifecycle.create(stored.job.job_id, state=stored.state)
            self.queue.restore(stored.job, stored.priority)
            recovered += 1
        # terminal jobs stay in the journal (and keep their ids
        # reserved, in both the lifecycle table and admission) but
        # need no replay; create before reserve, so the table's
        # terminal callback (QueueManager.retire) finds nothing to free
        for stored in self.store.all_jobs():
            if stored.state.terminal:
                self.lifecycle.create(
                    stored.job.job_id, state=stored.state
                )
                self.queue.reserve(stored.job.job_id)
        if recovered:
            self.telemetry.set_queue_depth(self.queue.depth)
        return recovered

    @property
    def recovered_jobs(self) -> int:
        """Jobs re-admitted from the journal at construction time."""
        return self._recovered

    # ------------------------------------------------------------------
    # lifecycle of the daemon itself
    # ------------------------------------------------------------------
    def start(self) -> "SchedulerService":
        self.sim.start()  # binds every tap, the recorder's run_start too
        self._down = None
        self._thread = threading.Thread(
            target=self._loop, name="repro-scheduler-loop", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        with self._cv:
            self._stop = True
            self._cv.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.store.close()

    def __enter__(self) -> "SchedulerService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # ------------------------------------------------------------------
    # API surface (called from HTTP handler threads and the CLI)
    # ------------------------------------------------------------------
    def submit(self, doc: dict) -> SubmitResult:
        """Validate and admit one submission, then wait until the
        scheduler loop has journaled and committed it.

        Raises :class:`ManifestError` for a malformed document and
        :class:`JournalError` when the submission was not journaled
        (its group's write failed, or the service is down).
        """
        t0 = time.perf_counter()
        body = dict(doc)
        try:
            job = job_from_dict(body)
        except (ManifestError, TypeError, ValueError) as exc:
            self.telemetry.submission("invalid", time.perf_counter() - t0)
            raise ManifestError(str(exc)) from exc
        # the manifest-level priority doubles as the service queue
        # priority and (via Job.priority) the preemption rank
        priority = job.priority
        pending = None
        with self._cv:
            down = self._down
            if down is None:
                # reserve the id and depth budget, then hand the job to
                # the loop, which journals it in its next transaction
                decision = self.queue.admit_and_reserve(job)
                if decision.admitted:
                    pending = self._pending[job.job_id] = _Pending()
                    self.queue.enqueue(job, priority)
                    self._idle = False
                    self._cv.notify_all()
        if down is not None:
            self.telemetry.submission(
                JOURNAL_ERROR, time.perf_counter() - t0
            )
            raise JournalError(job.job_id, RuntimeError(down))
        if pending is not None:
            pending.done.wait()
            if pending.error is not None:
                # not durable, so not accepted: the loop freed the
                # reservation, so the client can resubmit the same id
                self.telemetry.submission(
                    JOURNAL_ERROR, time.perf_counter() - t0
                )
                raise JournalError(
                    job.job_id, pending.error
                ) from pending.error
        self.telemetry.submission(decision.reason, time.perf_counter() - t0)
        state = JobState.SUBMITTED.value if decision.admitted else None
        return SubmitResult(job.job_id, decision, state)

    def cancel(self, job_id: str) -> str:
        """Request cancellation; returns the state seen at request time.

        The actual engine withdrawal happens on the loop thread; poll
        ``GET /jobs/<id>`` for the terminal ``CANCELLED``.  Raises
        :class:`KeyError` for unknown ids, :class:`ValueError` for
        already-terminal jobs and :class:`JournalError` when no loop
        will apply the request (the service is stopped or failed).
        """
        if job_id not in self.lifecycle:
            raise KeyError(job_id)
        state = self.lifecycle.state(job_id)
        if state.terminal:
            raise ValueError(
                f"job {job_id!r} is already {state.value}"
            )
        self._request(self._cancels, job_id)
        return state.value

    def evict(self, job_id: str) -> str:
        """Request preemption of a running job; returns its state now.

        The engine-side eviction happens on the loop thread: the job's
        progress is checkpointed, its GPUs are freed and it re-enters
        the scheduler queue (journaled as a RUNNING -> QUEUED hop) for
        a later round to re-place with only its remaining work plus
        the migration cost.  Raises :class:`KeyError` for unknown ids,
        :class:`ValueError` for jobs that are not running and
        :class:`JournalError` when the service is stopped or failed.
        """
        if job_id not in self.lifecycle:
            raise KeyError(job_id)
        state = self.lifecycle.state(job_id)
        if state is not JobState.RUNNING:
            raise ValueError(f"job {job_id!r} is {state.value}, not running")
        self._request(self._evictions, job_id)
        return state.value

    def _request(self, requests: list[str], job_id: str) -> None:
        """Hand a cancel or eviction to the loop; refused, like a
        submission, once no loop will apply it."""
        with self._cv:
            down = self._down
            if down is None:
                requests.append(job_id)
                self._idle = False
                self._cv.notify_all()
        if down is not None:
            raise JournalError(job_id, RuntimeError(down))

    def pause(self) -> None:
        """Stop stepping the engine; submissions keep applying."""
        with self._cv:
            self._paused = True
            self._cv.notify_all()

    def resume(self) -> None:
        with self._cv:
            self._paused = False
            self._idle = False
            self._cv.notify_all()

    @property
    def paused(self) -> bool:
        return self._paused

    def drain(self, timeout_s: float = 60.0) -> bool:
        """Block until the loop is idle (inbox empty, events drained).

        Test/driver convenience; returns False on timeout and once the
        service has fail-stopped.  A paused service is idle once the
        inbox is applied.
        """
        deadline = time.monotonic() + timeout_s
        with self._cv:
            while not self._idle:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cv.wait(min(remaining, 0.2))
        return self.failure is None

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def jobs_document(self) -> dict:
        return {
            "jobs": dict(self.lifecycle.table()),
            "queue_depth": self.queue.depth,
            "paused": self._paused,
            "idle": self._idle,
        }

    def job_status(self, job_id: str) -> dict:
        """State plus (once the engine knows the job) its record, both
        as of the last commit.

        After a fail-stop the engine may hold what the journal lost, so
        only the committed state is served.
        """
        with self._commit_lock:
            state = self.lifecycle.state(job_id)  # KeyError for unknown
            doc: dict = {"id": job_id, "state": state.value}
            if self.failure is not None:
                return doc
            try:
                record = self.sim.record_of(job_id)
            except KeyError:
                return doc  # journaled but not yet fed to the engine
            doc["record"] = record.to_dict()
        return doc

    def result(self) -> SimulationResult:
        """Snapshot result over everything processed so far.

        Meaningful when the loop is idle (pair with :meth:`drain`);
        the batch-equivalence test compares this against a one-shot
        ``Simulator.run`` of the same trace.
        """
        return self.sim.finish()

    # ------------------------------------------------------------------
    # the scheduler loop (sole engine mutator)
    # ------------------------------------------------------------------
    def _has_work(self) -> bool:
        if self._cancels or self._evictions or len(self.queue):
            return True
        return not self._paused and self.sim.pending_events > 0

    def _loop(self) -> None:
        while True:
            with self._cv:
                while not self._stop and not self._has_work():
                    if not self._idle:
                        # settle the published snapshot: bursts shorter
                        # than the snapshot throttle window would
                        # otherwise leave /state showing their start.
                        # Settle when the window allows, not at once: a
                        # steady trickle of submissions goes idle after
                        # nearly every job, and one rebuild per job
                        # would undo the throttle
                        wait = self._snapshots.next_publish_in()
                        if wait > 0:
                            self._cv.wait(wait)
                            continue
                        self._idle = True
                        self._snapshots.publish_now()
                        self._refresh_gauges()
                        self._cv.notify_all()
                    self._cv.wait(0.2)
                if self._stop:
                    self._shut("the service stopped")
                    return
            try:
                if not self._iterate():
                    return
            except Exception as exc:
                # a fault past the commit: the journal is durable and the
                # group answered; stop loudly rather than let the thread
                # die unseen
                self._halt(exc, ())
                return

    def _iterate(self) -> bool:
        """One transaction: journal the popped submissions, feed them,
        apply cancels and evictions, step, commit, then publish.
        Returns False when the service fail-stopped."""
        store, lifecycle = self.store, self.lifecycle
        entries = self.queue.pop_batch(_APPLY_BATCH)
        # a popped job with a waiting submitter is new; one without
        # was restored by recovery and is journaled already
        group, restored = [], []
        for entry in entries:
            pending = self._pending.pop(entry.job.job_id, None)
            if pending is None:
                restored.append(entry)
            else:
                group.append((entry, pending))
        store.begin()
        lifecycle.stage()
        try:
            for entry, _ in group:
                store.journal_submission(
                    entry.job, entry.priority, JobState.SUBMITTED
                )
                lifecycle.create(entry.job.job_id, JobState.SUBMITTED)
        except Exception as exc:
            # the engine has not seen the group: undo it whole and
            # refuse every member; restored jobs go back to the inbox
            store.rollback()
            lifecycle.discard()
            for entry in restored:
                self.queue.enqueue(entry.job, entry.priority)
            self._refuse(group, exc)
            return True
        recorder = self.decision_recorder
        recorder.hold()
        self._snapshots.hold()
        with self._commit_lock:
            try:
                self._feed(entries)
                with self._cv:
                    cancels, self._cancels = self._cancels, []
                    evictions, self._evictions = self._evictions, []
                self._apply_cancels(cancels)
                self._apply_evictions(evictions)
                if not self._paused and self.sim.pending_events:
                    self.sim.step()
                    if not self.sim.pending_events:
                        self._handle_stuck_queue()
                store.commit()
            except Exception as exc:
                # a hop write, the COMMIT, or any fault after the engine
                # moved: what the engine did can no longer be journaled
                self._halt(exc, group)
                return False
            lifecycle.publish()
        for _, pending in group:
            pending.done.set()
        recorder.publish()
        if self._snapshots.release():
            self._refresh_gauges()
        return True

    def _feed(self, entries) -> None:
        for entry in entries:
            job = entry.job
            # a daemon submission may carry a trace arrival time that
            # the virtual clock has already passed: clamp to now, the
            # service analogue of "the job arrives when it arrives"
            if job.arrival_time < self.sim.cluster.now:
                job = dataclasses.replace(
                    job, arrival_time=self.sim.cluster.now
                )
            self.sim.submit_job(job)

    def _refuse(self, group, exc: BaseException) -> None:
        """Answer each member's submitter with ``exc`` and free its id
        and depth budget."""
        for entry, pending in group:
            self.queue.release(entry.job.job_id)
            pending.error = exc
            pending.done.set()

    def _halt(self, exc: BaseException, group) -> None:
        """Fail-stop after the engine moved past what the journal can
        hold: publish nothing of this iteration (the recorder and the
        snapshot stay held), refuse its submitters, stop the loop."""
        kind = "journal" if isinstance(exc, sqlite3.Error) else "loop"
        self.failure = f"{kind} failure: {type(exc).__name__}: {exc}"
        try:
            self.store.rollback()
        except sqlite3.Error:
            pass  # the connection is beyond use; the journal is intact
        self.lifecycle.discard()
        self._refuse(group, exc)
        with self._cv:
            self._shut(self.failure)

    def _shut(self, reason: str) -> None:
        """Stop taking submissions (``_cv`` held): refuse every waiting
        one and mark the loop idle for good."""
        self._down = reason
        refused = [
            (entry, pending)
            for entry in self.queue.pop_batch()
            if (pending := self._pending.pop(entry.job.job_id, None))
        ]
        self._refuse(refused, RuntimeError(reason))
        self._idle = True
        self._cv.notify_all()

    def _apply_cancels(self, job_ids: list[str]) -> None:
        for job_id in job_ids:
            if self.lifecycle.current(job_id).terminal:
                continue  # raced with finish/fail: terminal wins
            try:
                phase, touched = self.sim.cancel_job(job_id)
            except KeyError:
                try:
                    self.sim.record_of(job_id)
                    continue  # engine knows it: a duplicate cancel
                except KeyError:
                    # admitted but still in the (batch-limited) inbox:
                    # retry once the next iteration has fed it
                    with self._cv:
                        self._cancels.append(job_id)
                    continue
            self.lifecycle.advance(job_id, JobState.CANCELLED)
            self.telemetry.cancellation(phase)
            if touched:
                # reoffer the freed capacity without waiting for the
                # next event
                self.sim.run_round(touched)

    def _apply_evictions(self, job_ids: list[str]) -> None:
        for job_id in job_ids:
            try:
                touched = self.sim.preempt_job(job_id)
            except KeyError:
                continue  # finished/cancelled/already evicted: moot
            self.telemetry.eviction()
            # reoffer the freed capacity (and possibly re-place the
            # victim itself) without waiting for the next event
            self.sim.run_round(touched)

    def _handle_stuck_queue(self) -> None:
        """Drained loop + idle cluster + non-empty queue: those jobs
        can never place (same rule as the one-shot run loop)."""
        scheduler = self.sim.scheduler
        if scheduler.queue_length() == 0 or self.sim.cluster.running:
            return
        if len(self.queue) or self._cancels:
            return  # more inbox traffic may still unblock the queue
        stuck = [job.job_id for job in scheduler.queued_jobs()]
        self.sim.mark_unplaceable(stuck)
        for job_id in stuck:
            self.lifecycle.advance(job_id, JobState.FAILED)

    def _refresh_gauges(self) -> None:
        """Set the per-state and depth gauges; runs with each snapshot
        publish, so they share its throttle."""
        self.telemetry.set_jobs_by_state(self.lifecycle.counts())
        self.telemetry.set_queue_depth(self.queue.depth)
        # unpopped inbox entries: admission backpressure distinct
        # from the admitted-minus-retired backlog above
        self.telemetry.set_inbox_depth(len(self.queue))


#: HTTP status for each admission ruling
_REJECTION_STATUS = {
    "duplicate": 409,
    "over-capacity": 422,
    "queue-full": 429,
}


class ServiceServer(IntrospectionServer):
    """The daemon's HTTP face: introspection endpoints + write verbs.

    Inherits ``GET /metrics`` (simulation + service families on one
    registry), ``/healthz`` (503 with the reason once the service has
    fail-stopped), ``/state`` (now carrying the job-state
    table), ``/alerts``, ``/timeseries``, ``/cluster``,
    ``/decisions``, ``/explain/<id>`` and the ``/events`` SSE stream;
    adds:

    * ``POST /submit`` — manifest-format job object (+ optional
      ``priority``); 202 once admitted *and committed*, 4xx with a
      reason otherwise, 503 when the journal write failed (nothing
      kept: resubmit) or the service has stopped;
    * ``POST /cancel`` — ``{"id": ...}``; 202 accepted (poll the job);
    * ``POST /evict`` — ``{"id": ...}``; 202 accepted: the running job
      is checkpointed back to the queue for re-placement;
    * ``POST /pause`` / ``POST /resume`` — gate engine stepping;
    * ``GET /jobs`` — lifecycle table + queue depth;
    * ``GET /jobs/<id>`` — state + live record.
    """

    def __init__(
        self,
        service: SchedulerService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        watchdog=None,
    ) -> None:
        super().__init__(
            service.publisher,
            service.registry,
            watchdog if watchdog is not None else service.watchdog,
            host=host,
            port=port,
            recorder=service.decision_recorder,
            timeseries=service.timeseries,
        )
        self.service = service

    def render_health(self) -> tuple[str, int]:
        body, code = super().render_health()
        failure = self.service.failure
        if failure is None:
            return body, code
        # fail-stopped: the process is alive but schedules nothing
        doc = json.loads(body)
        doc.update(status="failed", reason=failure)
        return json.dumps(doc), 503

    def explain_document(self, job_id: str, decisions: list) -> dict:
        doc = super().explain_document(job_id, decisions)
        # enrich with the daemon's lifecycle view so one GET answers
        # both "why" and "where is it now"
        try:
            doc["state"] = self.service.lifecycle.state(job_id).value
        except KeyError:
            pass
        return doc

    # ------------------------------------------------------------------
    def get_routes(self):
        routes = super().get_routes()
        routes["/jobs"] = lambda: json_response(
            200, self.service.jobs_document()
        )
        return routes

    def dispatch_get(self, path: str) -> Response | None:
        if path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            try:
                return json_response(200, self.service.job_status(job_id))
            except KeyError:
                return json_response(404, {"error": f"unknown job {job_id!r}"})
        return super().dispatch_get(path)

    def post_routes(self):
        return {
            "/submit": self._post_submit,
            "/cancel": lambda body: self._post_request(self.service.cancel, body),
            "/evict": lambda body: self._post_request(self.service.evict, body),
            "/pause": self._post_pause,
            "/resume": self._post_resume,
        }

    # ------------------------------------------------------------------
    def _post_submit(self, body: dict) -> Response:
        try:
            result = self.service.submit(body)
        except ManifestError as exc:
            return json_response(400, {"error": str(exc)})
        except JournalError as exc:
            return json_response(
                503,
                {"id": exc.job_id, "rejected": JOURNAL_ERROR,
                 "error": str(exc)},
            )
        if not result.decision.admitted:
            code = _REJECTION_STATUS.get(result.decision.reason, 400)
            return json_response(
                code,
                {"id": result.job_id, "rejected": result.decision.reason},
            )
        return json_response(
            202, {"id": result.job_id, "state": result.state}
        )

    def _post_request(self, verb, body: dict) -> Response:
        """``POST /cancel`` and ``POST /evict``: 202 once the loop has
        the request, 503 when no loop will apply it."""
        job_id = body.get("id")
        if not isinstance(job_id, str) or not job_id:
            return json_response(400, {"error": 'body needs an "id" string'})
        try:
            seen = verb(job_id)
        except KeyError:
            return json_response(404, {"error": f"unknown job {job_id!r}"})
        except ValueError as exc:
            return json_response(409, {"error": str(exc)})
        except JournalError as exc:
            return json_response(503, {"id": job_id, "error": str(exc)})
        return json_response(202, {"id": job_id, "state": seen})

    def _post_pause(self, body: dict) -> Response:
        self.service.pause()
        return json_response(200, {"paused": True})

    def _post_resume(self, body: dict) -> Response:
        self.service.resume()
        return json_response(200, {"paused": False})
