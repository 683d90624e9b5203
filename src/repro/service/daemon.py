"""The scheduler service daemon: one engine, one loop thread, HTTP API.

Threading model (the whole point of the design):

* **HTTP handler threads** (from the stdlib threading server) never
  touch the simulation engine.  A submission is validated, admitted
  (:class:`~repro.service.queue.QueueManager`), journaled
  (:class:`~repro.service.store.ServiceStore`) and pushed onto the
  priority inbox — all thread-safe, all O(1)-ish — then the loop is
  woken.  Reads are served from atomically published snapshots and the
  lifecycle table.
* **The scheduler loop thread** is the *only* mutator of the
  :class:`~repro.sim.engine.Simulator`: it drains the inbox into
  :meth:`~repro.sim.engine.Simulator.submit_job`, applies cancels, and
  steps the event loop.  Single-writer means the engine needs no locks
  and stays bit-identical with its one-shot batch mode.

Pause/resume (``POST /pause`` / ``POST /resume``) stops *stepping*
while commands keep applying: submit a whole trace paused, resume, and
the engine drains it in virtual-time order — byte-for-byte the same
records a one-shot ``repro simulate`` of that trace produces (pinned
by the batch-equivalence golden test).

Lifecycle hops observed from the engine (arrival, placement, finish,
failure requeue) flow through the
:class:`~repro.service.statemachine.LifecycleTable`, which journals
every accepted transition to sqlite; on restart the daemon re-admits
every non-terminal journaled job, so a killed daemon resumes with the
queue it died with.
"""

from __future__ import annotations

import dataclasses
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
from repro.obs.timeseries import TimeSeriesSampler, TimeSeriesStore
from repro.schedulers import make_scheduler
from repro.schedulers.base import Scheduler
from repro.service.queue import AdmissionDecision, QueueManager
from repro.service.statemachine import JobState, LifecycleTable
from repro.service.store import ServiceStore
from repro.sim.engine import Simulator
from repro.sim.hooks import BaseObserver
from repro.sim.records import JobRecord, SimulationResult
from repro.topology.graph import TopologyGraph
from repro.workload.manifest import ManifestError, job_from_dict

#: how many inbox entries one loop iteration feeds before stepping —
#: bounds the latency between a burst and the first decision round
#: without letting a flood starve the event loop.
_APPLY_BATCH = 1024

#: wall-clock throttle for the per-state and depth gauge refresh
_GAUGE_INTERVAL_S = 0.05


@dataclass(frozen=True)
class SubmitResult:
    """What the API returns for one submission."""

    job_id: str
    decision: AdmissionDecision
    state: str | None  # lifecycle state right after admission


#: telemetry reason for an admitted submission the journal refused
JOURNAL_ERROR = "journal-error"


class JournalError(RuntimeError):
    """An admitted submission could not be journaled; it was withdrawn
    (no lifecycle entry, no inbox entry, id and depth budget freed)."""

    def __init__(self, job_id: str, cause: BaseException) -> None:
        super().__init__(f"job {job_id!r} was not journaled: {cause}")
        self.job_id = job_id


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
        if self._svc.lifecycle.advance_if(job.job_id, JobState.FINISHED):
            self._svc.queue.retire(job.job_id)

    def on_requeue(self, t, job):
        self._svc.lifecycle.advance_if(job.job_id, JobState.QUEUED)

    def on_evict(self, t, job, gpus, reason):
        # preempt/migrate: the job leaves its GPUs but stays in play —
        # journal the RUNNING -> QUEUED hop (a migrated job's on_place
        # follows in the same round and advances it straight back).
        # Cancel is NOT handled here: _apply_cancels owns the
        # CANCELLED transition and the queue retirement.
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
        decision_ring: int = 4096,
        decision_journal: bool = False,
        watchdog_rules=None,
        timeseries_capacity: int = 512,
        sample_interval_s: float = 0.05,
    ) -> None:
        if isinstance(scheduler, str):
            scheduler = make_scheduler(scheduler)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.telemetry = ServiceTelemetry(self.registry)
        self.store = ServiceStore(
            store_path, observe_write=self.telemetry.journal_write
        )
        self.lifecycle = LifecycleTable(journal=self._journal_hook)
        self.queue = QueueManager(
            len(topo.gpus()), max_depth=max_queue_depth
        )
        self.publisher = SnapshotPublisher()
        self._snapshots = SnapshotObserver(
            self.publisher,
            scheduler=scheduler.name,
            job_states_source=self.lifecycle.states,
        )
        sim_telemetry = TelemetryObserver(
            self.registry, scheduler=scheduler.name
        )
        # the decision flight recorder backs /decisions, /explain/<id>
        # and the /events SSE stream; ring-bounded so a long-running
        # daemon's memory stays flat (decision_ring=0 disables it)
        self.decision_recorder = (
            DecisionRecorder(
                ring_size=decision_ring,
                journal=decision_journal,
                registry=self.registry,
                scheduler=scheduler.name,
            )
            if decision_ring > 0
            else None
        )
        provenance_taps = (
            (self.decision_recorder,) if self.decision_recorder else ()
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
        # the continuous-telemetry sampler behind /timeseries and
        # /cluster; capacity 0 disables it (and the endpoints degrade
        # to {"enabled": false})
        self.timeseries = (
            TimeSeriesStore(capacity=timeseries_capacity)
            if timeseries_capacity > 0
            else None
        )
        self.sampler = (
            TimeSeriesSampler(
                self.timeseries, min_interval_s=sample_interval_s
            )
            if self.timeseries is not None
            else None
        )
        sampler_taps = (self.sampler,) if self.sampler is not None else ()
        self.sim = Simulator(
            topo,
            scheduler,
            [],
            observers=[
                _LifecycleBridge(self),
                sim_telemetry,
                *watchdog_taps,
                self._snapshots,
                *sampler_taps,
                *provenance_taps,
                *extra_observers,
            ],
        )
        self._cv = threading.Condition()
        self._cancels: list[str] = []
        self._evictions: list[str] = []
        self._paused = False
        self._stop = False
        self._idle = True
        self._thread: threading.Thread | None = None
        self._gauge_stamp = float("-inf")
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
        # need no replay
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
        """Validate, admit, journal and enqueue one submission.

        Raises :class:`ManifestError` for a malformed document and
        :class:`JournalError` when the journal write fails.
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
        # two-phase admission: reserve first, enqueue last — the loop
        # thread must never pop a job whose lifecycle entry and journal
        # row do not exist yet (the engine's observer notifications
        # would hit an untracked id and strand the job in SUBMITTED)
        decision = self.queue.admit_and_reserve(job)
        state: str | None = None
        if decision.admitted:
            try:
                self.store.journal_submission(
                    job, priority, JobState.SUBMITTED
                )
            except sqlite3.Error as exc:
                # not durable, so not accepted: free the reservation so
                # the client can resubmit the same id
                self.queue.release(job.job_id)
                self.telemetry.submission(
                    JOURNAL_ERROR, time.perf_counter() - t0
                )
                raise JournalError(job.job_id, exc) from exc
            self.lifecycle.create(job.job_id, JobState.SUBMITTED)
            state = JobState.SUBMITTED.value
            self.telemetry.set_queue_depth(self.queue.depth)
            self.queue.enqueue(job, priority)
            self.telemetry.set_inbox_depth(len(self.queue))
            with self._cv:
                self._idle = False
                self._cv.notify_all()
        self.telemetry.submission(decision.reason, time.perf_counter() - t0)
        return SubmitResult(job.job_id, decision, state)

    def cancel(self, job_id: str) -> str:
        """Request cancellation; returns the state seen at request time.

        The actual engine withdrawal happens on the loop thread; poll
        ``GET /jobs/<id>`` for the terminal ``CANCELLED``.  Raises
        :class:`KeyError` for unknown ids and :class:`ValueError` for
        already-terminal jobs.
        """
        if job_id not in self.lifecycle:
            raise KeyError(job_id)
        state = self.lifecycle.state(job_id)
        if state.terminal:
            raise ValueError(
                f"job {job_id!r} is already {state.value}"
            )
        with self._cv:
            self._cancels.append(job_id)
            self._idle = False
            self._cv.notify_all()
        return state.value

    def evict(self, job_id: str) -> str:
        """Request preemption of a running job; returns its state now.

        The engine-side eviction happens on the loop thread: the job's
        progress is checkpointed, its GPUs are freed and it re-enters
        the scheduler queue (journaled as a RUNNING -> QUEUED hop) for
        a later round to re-place with only its remaining work plus
        the migration cost.  Raises :class:`KeyError` for unknown ids
        and :class:`ValueError` for jobs that are not running.
        """
        if job_id not in self.lifecycle:
            raise KeyError(job_id)
        state = self.lifecycle.state(job_id)
        if state is not JobState.RUNNING:
            raise ValueError(f"job {job_id!r} is {state.value}, not running")
        with self._cv:
            self._evictions.append(job_id)
            self._idle = False
            self._cv.notify_all()
        return state.value

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

        Test/driver convenience; returns False on timeout.  A paused
        service is idle once the inbox is applied.
        """
        deadline = time.monotonic() + timeout_s
        with self._cv:
            while not self._idle:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cv.wait(min(remaining, 0.2))
        return True

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
        """State plus (once the engine knows the job) its live record."""
        state = self.lifecycle.state(job_id)  # KeyError for unknown
        doc: dict = {"id": job_id, "state": state.value}
        try:
            record = self.sim.record_of(job_id)
        except KeyError:
            return doc  # journaled but not yet fed to the engine
        doc["record"] = _record_to_dict(record)
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
                        self._idle = True
                        # settle the published snapshot: bursts shorter
                        # than the snapshot throttle window would
                        # otherwise leave /state showing their start
                        self._snapshots.publish_now()
                        self._refresh_gauges(force=True)
                        self._cv.notify_all()
                    self._cv.wait(0.2)
                if self._stop:
                    self._idle = True
                    self._cv.notify_all()
                    return
                cancels = self._cancels
                self._cancels = []
                evictions = self._evictions
                self._evictions = []
            self._apply_submissions()
            self._apply_cancels(cancels)
            self._apply_evictions(evictions)
            if not self._paused and self.sim.pending_events:
                self.sim.step()
                if not self.sim.pending_events:
                    self._handle_stuck_queue()
            self._refresh_gauges()

    def _apply_submissions(self) -> None:
        for entry in self.queue.pop_batch(_APPLY_BATCH):
            job = entry.job
            # a daemon submission may carry a trace arrival time that
            # the virtual clock has already passed: clamp to now, the
            # service analogue of "the job arrives when it arrives"
            if job.arrival_time < self.sim.cluster.now:
                job = dataclasses.replace(
                    job, arrival_time=self.sim.cluster.now
                )
            self.sim.submit_job(job)

    def _apply_cancels(self, job_ids: list[str]) -> None:
        for job_id in job_ids:
            state = self.lifecycle.state(job_id)
            if state.terminal:
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
            self.queue.retire(job_id)
            self.telemetry.cancellation(phase)
            self.telemetry.set_queue_depth(self.queue.depth)
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
            self.sim.cancel_job(job_id)  # withdraw from the engine
            self.lifecycle.advance(job_id, JobState.FAILED)
            self.queue.retire(job_id)
        self.telemetry.set_queue_depth(self.queue.depth)

    def _refresh_gauges(self, force: bool = False) -> None:
        now = time.monotonic()
        if force or now - self._gauge_stamp >= _GAUGE_INTERVAL_S:
            self._gauge_stamp = now
            self.telemetry.set_jobs_by_state(self.lifecycle.counts())
            self.telemetry.set_queue_depth(self.queue.depth)
            # unpopped inbox entries: admission backpressure distinct
            # from the admitted-minus-retired backlog above
            self.telemetry.set_inbox_depth(len(self.queue))


def _record_to_dict(record: JobRecord) -> dict:
    return {
        "arrival": record.arrival,
        "placed_at": record.placed_at,
        "finished_at": record.finished_at,
        "gpus": list(record.gpus),
        "utility": record.utility,
        "p2p": record.p2p,
        "solo_exec_time": record.solo_exec_time,
        "ideal_exec_time": record.ideal_exec_time,
        "postponements": record.postponements,
        "unplaceable": record.unplaceable,
        "restarts": record.restarts,
        "cancelled_at": record.cancelled_at,
        "preemptions": record.preemptions,
        "migrations": record.migrations,
    }


#: HTTP status for each admission ruling
_REJECTION_STATUS = {
    "duplicate": 409,
    "over-capacity": 422,
    "queue-full": 429,
}


class ServiceServer(IntrospectionServer):
    """The daemon's HTTP face: introspection endpoints + write verbs.

    Inherits ``GET /metrics`` (simulation + service families on one
    registry), ``/healthz``, ``/state`` (now carrying the job-state
    table), ``/alerts``, and — when the service keeps a decision
    recorder — ``/decisions``, ``/explain/<id>`` and the ``/events``
    SSE stream; adds:

    * ``POST /submit`` — manifest-format job object (+ optional
      ``priority``); 202 admitted, 4xx with a reason otherwise, 503
      when the journal write failed (nothing kept: resubmit);
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
            "/cancel": self._post_cancel,
            "/evict": self._post_evict,
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

    def _post_cancel(self, body: dict) -> Response:
        job_id = body.get("id")
        if not isinstance(job_id, str) or not job_id:
            return json_response(400, {"error": 'body needs an "id" string'})
        try:
            seen = self.service.cancel(job_id)
        except KeyError:
            return json_response(404, {"error": f"unknown job {job_id!r}"})
        except ValueError as exc:
            return json_response(409, {"error": str(exc)})
        return json_response(202, {"id": job_id, "state": seen})

    def _post_evict(self, body: dict) -> Response:
        job_id = body.get("id")
        if not isinstance(job_id, str) or not job_id:
            return json_response(400, {"error": 'body needs an "id" string'})
        try:
            seen = self.service.evict(job_id)
        except KeyError:
            return json_response(404, {"error": f"unknown job {job_id!r}"})
        except ValueError as exc:
            return json_response(409, {"error": str(exc)})
        return json_response(202, {"id": job_id, "state": seen})

    def _post_pause(self, body: dict) -> Response:
        self.service.pause()
        return json_response(200, {"paused": True})

    def _post_resume(self, body: dict) -> Response:
        self.service.resume()
        return json_response(200, {"paused": False})
