"""Bridge from simulation hooks to metrics.

:class:`TelemetryObserver` is a :class:`~repro.sim.hooks.SimObserver`
that drives a :class:`~repro.obs.metrics.MetricsRegistry`: lifecycle
counters and histograms from the simulation event stream, and cluster
gauges plus the engine's memo and prefilter counters read off the
bound simulation at every round boundary (and after an out-of-round
eviction), so a daemon that never finishes a run exports them too.
The per-event records live in the
decision flight recorder (:mod:`repro.obs.provenance`).  It is a
pure tap: it never mutates cluster or scheduler state, so attaching it
cannot change simulation results (pinned by the golden-equivalence
tests).

Metric families (all labelled ``scheduler``):

======================================  =========  =============================
name                                    type       meaning
======================================  =========  =============================
repro_jobs_arrived_total                counter    jobs submitted to the queue
repro_jobs_placed_total                 counter    placements enforced
repro_jobs_finished_total               counter    jobs completed
repro_jobs_requeued_total               counter    failure victims resubmitted
repro_evictions_total                   counter    jobs evicted mid-run, by
                                                   reason (cancel/preempt/
                                                   migrate); also labelled
                                                   ``reason``
repro_migrations_total                  counter    defragmentation migrations
repro_machine_failures_total            counter    fail-stop machine events
repro_job_postponements_total           counter    TOPO-AWARE-P postponements
repro_slo_violations_total              counter    placements below min_utility
repro_decision_rounds_total             counter    scheduler invocations
repro_queue_depth                       gauge      jobs waiting after a round
repro_running_jobs                      gauge      jobs currently executing
repro_gpus_busy                         gauge      GPUs currently allocated
repro_gpu_utilization                   gauge      busy fraction of all GPUs
repro_decision_latency_seconds          histogram  wall-clock per decision round
repro_job_waiting_seconds               histogram  arrival -> placement delay
repro_placement_utility                 histogram  chosen normalised utility
repro_placement_cache_hits_total        counter    placement-memo hits
repro_placement_cache_misses_total      counter    placement-memo misses
repro_placement_cache_invalidations_total  counter  allocation-epoch rotations
                                                   between memo lookups
repro_placement_cache_hit_rate          gauge      memo hits per proposal
repro_placement_prefilter_considered_total  counter  hosts probed by the top-k
                                                     candidate prefilter
repro_placement_prefilter_pruned_total  counter    capacity-eligible hosts the
                                                   prefilter never probed
======================================  =========  =============================
"""

from __future__ import annotations

from repro.core.utility import SLO_EPS
from repro.obs.metrics import MetricsRegistry
from repro.sim.hooks import BaseObserver

#: buckets for normalised utility in [0, 1]
_UTILITY_BUCKETS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0)
#: buckets for queueing delay (simulation seconds)
_WAIT_BUCKETS = (0.0, 1.0, 5.0, 15.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1800.0)
#: buckets for daemon submission latency (wall seconds: the replay
#: driver targets thousands of submissions/s, so sub-millisecond bins)
_SUBMIT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.05, 0.25, 1.0,
)


class TelemetryObserver(BaseObserver):
    """Feed sim lifecycle events into a metrics registry.

    Lifecycle counters and histograms come from the hooks; the cluster
    gauges and the engine's memo and prefilter counters are read off
    the simulation it is bound to (``bind_simulation``, called by
    ``Simulator.start``) at every decision-round boundary.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        *,
        scheduler: str = "",
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.scheduler = scheduler
        # job id -> postponements already counted; dropped at the job's
        # terminal hook so the map holds live jobs only
        self._postponements_seen: dict[str, int] = {}
        self._cluster = None  # set by bind_simulation

        reg = self.registry
        labels = ("scheduler",)
        self._arrived = reg.counter(
            "repro_jobs_arrived_total", "Jobs submitted to the scheduler queue.",
            labels)
        self._placed = reg.counter(
            "repro_jobs_placed_total", "Placements enforced on the cluster.",
            labels)
        self._finished = reg.counter(
            "repro_jobs_finished_total", "Jobs that ran to completion.", labels)
        self._requeued = reg.counter(
            "repro_jobs_requeued_total",
            "Failure victims resubmitted to the queue.", labels)
        self._evictions = reg.counter(
            "repro_evictions_total",
            "Jobs evicted mid-run (cancelled, preempted or migrated).",
            ("scheduler", "reason"))
        self._migrations = reg.counter(
            "repro_migrations_total",
            "Running jobs moved to a better allocation by defragmentation.",
            labels)
        self._failures = reg.counter(
            "repro_machine_failures_total", "Fail-stop machine events.", labels)
        self._postponed = reg.counter(
            "repro_job_postponements_total",
            "Placements deferred by the postponing policy.", labels)
        self._slo_violations = reg.counter(
            "repro_slo_violations_total",
            "Placements whose utility fell below the job's min_utility.",
            labels)
        self._rounds = reg.counter(
            "repro_decision_rounds_total", "Scheduler invocations.", labels)
        self._queue_depth = reg.gauge(
            "repro_queue_depth", "Jobs waiting after the last decision round.",
            labels)
        self._running_jobs = reg.gauge(
            "repro_running_jobs", "Jobs currently executing.", labels)
        self._gpus_busy = reg.gauge(
            "repro_gpus_busy", "GPUs currently allocated to running jobs.",
            labels)
        self._utilization = reg.gauge(
            "repro_gpu_utilization",
            "Allocated fraction of all cluster GPUs.", labels)
        self._decision_latency = reg.histogram(
            "repro_decision_latency_seconds",
            "Wall-clock scheduler time per decision round.", labels)
        self._waiting = reg.histogram(
            "repro_job_waiting_seconds",
            "Simulated delay between a job's arrival and its placement.",
            labels, buckets=_WAIT_BUCKETS)
        self._utility = reg.histogram(
            "repro_placement_utility",
            "Normalised utility of enforced placements (Eq. 1).",
            labels, buckets=_UTILITY_BUCKETS)
        memo_hits = reg.counter(
            "repro_placement_cache_hits_total",
            "Placement-memo hits (proposals replayed from cache).", labels)
        memo_misses = reg.counter(
            "repro_placement_cache_misses_total",
            "Placement-memo misses (proposals solved from scratch).", labels)
        memo_invalidations = reg.counter(
            "repro_placement_cache_invalidations_total",
            "Allocation-epoch rotations seen between placement-memo "
            "lookups (entries survive them).",
            labels)
        self._memo_hit_rate = reg.gauge(
            "repro_placement_cache_hit_rate",
            "Fraction of proposals served from the placement memo.", labels)
        prefilter_considered = reg.counter(
            "repro_placement_prefilter_considered_total",
            "Hosts probed by the top-k candidate prefilter.", labels)
        prefilter_pruned = reg.counter(
            "repro_placement_prefilter_pruned_total",
            "Capacity-eligible hosts the prefilter never had to probe.",
            labels)
        self._engine_counters = (
            memo_hits, memo_misses, memo_invalidations,
            prefilter_considered, prefilter_pruned,
        )

    # ------------------------------------------------------------------
    def bind_simulation(self, sim) -> None:
        """Read the gauges and engine counters off ``sim.cluster``."""
        self._cluster = sim.cluster
        self._total_gpus = len(sim.topo.gpus())
        if not self.scheduler:
            self.scheduler = sim.scheduler.name
        #: (busy GPUs, running jobs) the gauges were last set to
        self._gauged = None
        #: this engine's counters as last folded, in
        #: ``_engine_counters`` order
        self._folded = (0, 0, 0, 0, 0)

    def _gpu_gauges(self) -> None:
        cluster = self._cluster
        busy, running = now = (cluster.alloc.busy_count(), len(cluster.running))
        if now != self._gauged:  # else the gauges already hold these
            self._gauged = now
            sched = self.scheduler
            self._gpus_busy.set(busy, scheduler=sched)
            self._running_jobs.set(running, scheduler=sched)
            self._utilization.set(busy / self._total_gpus, scheduler=sched)

    def _fold_engine(self, *, every: bool = False) -> None:
        """Add what the engine's memo and prefilter counted since the
        last fold; ``every`` also writes zero deltas, so a finished run
        exports every series."""
        engine = self._cluster.engine
        stats, pf = engine.stats, engine.prefilter.stats
        now = (stats.hits, stats.misses, stats.invalidations,
               pf.considered, pf.pruned)
        if now != self._folded or every:
            sched = self.scheduler
            for counter, new, old in zip(self._engine_counters, now, self._folded):
                if new != old or every:
                    counter.inc(new - old, scheduler=sched)
            self._folded = now
            self._memo_hit_rate.set(stats.hit_rate, scheduler=sched)

    # ------------------------------------------------------------------
    # run envelope
    # ------------------------------------------------------------------
    def finalize_result(self, result) -> None:
        """Runner wiring (:func:`repro.sim.runner.run_with_observers`):
        fold what the engine counted since the last round, zeros
        included."""
        self._fold_engine(every=True)

    # ------------------------------------------------------------------
    # SimObserver hooks
    # ------------------------------------------------------------------
    def on_arrival(self, t, job):
        self._arrived.inc(scheduler=self.scheduler)

    def on_place(self, t, job, solution, solo_exec_time, postponements):
        # no gauge refresh here: mid-round, the allocation already
        # holds every placement the round enforced
        sched = self.scheduler
        self._placed.inc(scheduler=sched)
        self._waiting.observe(max(0.0, t - job.arrival_time), scheduler=sched)
        self._utility.observe(solution.utility, scheduler=sched)
        new_postponements = postponements - self._postponements_seen.get(
            job.job_id, 0
        )
        if new_postponements > 0:
            self._postponed.inc(new_postponements, scheduler=sched)
            self._postponements_seen[job.job_id] = postponements
        if solution.utility < job.min_utility - SLO_EPS:
            self._slo_violations.inc(scheduler=sched)

    def on_finish(self, t, job, gpus):
        self._finished.inc(scheduler=self.scheduler)
        self._postponements_seen.pop(job.job_id, None)

    def on_failure(self, t, machine, victims):
        self._failures.inc(scheduler=self.scheduler)

    def on_requeue(self, t, job):
        self._requeued.inc(scheduler=self.scheduler)

    def on_evict(self, t, job, gpus, reason):
        sched = self.scheduler
        self._evictions.inc(scheduler=sched, reason=reason)
        if reason == "migrate":
            self._migrations.inc(scheduler=sched)
        elif reason == "cancel":
            self._postponements_seen.pop(job.job_id, None)
        # cancel_job / preempt_job free GPUs outside any round
        self._gpu_gauges()

    def on_decision_round(self, t, placed, queued, elapsed_s):
        sched = self.scheduler
        self._rounds.inc(scheduler=sched)
        self._decision_latency.observe(elapsed_s, scheduler=sched)
        self._queue_depth.set(queued, scheduler=sched)
        self._gpu_gauges()
        self._fold_engine()


class ServiceTelemetry:
    """Metric families for the scheduler service daemon.

    Counts the *service-side* traffic — what crossed the submission API
    and how the admission controller ruled — as opposed to
    :class:`TelemetryObserver`'s simulation-side lifecycle families.
    Shares the daemon's :class:`MetricsRegistry` so ``GET /metrics``
    exports both in one scrape:

    ==========================================  =========  ======================
    name                                        type       meaning
    ==========================================  =========  ======================
    repro_service_submissions_total             counter    POST /submit requests
    repro_service_admissions_total{decision}    counter    admitted / rejected-*
                                                           / journal-error
    repro_service_cancellations_total{phase}    counter    cancels by job phase
    repro_service_evictions_total               counter    POST /evict preemptions
                                                           applied to the engine
    repro_service_queue_depth                   gauge      jobs waiting (service)
    repro_service_inbox_depth                   gauge      admitted jobs not yet
                                                           fed to the engine
                                                           (admission backlog)
    repro_service_jobs{state}                   gauge      jobs per lifecycle state
    repro_service_submission_latency_seconds    histogram  submit wall latency
    repro_service_journal_write_latency_seconds histogram  one sqlite journal
                                                           write (stall detector)
    ==========================================  =========  ======================
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        self._submissions = reg.counter(
            "repro_service_submissions_total",
            "Submission requests received by the daemon.")
        self._admissions = reg.counter(
            "repro_service_admissions_total",
            "Admission-control decisions (admitted or a rejection reason).",
            ("decision",))
        self._cancellations = reg.counter(
            "repro_service_cancellations_total",
            "Cancellations applied, by the phase the job was caught in.",
            ("phase",))
        self._evictions = reg.counter(
            "repro_service_evictions_total",
            "Operator evictions (POST /evict) applied to the engine.")
        self._queue_depth = reg.gauge(
            "repro_service_queue_depth",
            "Jobs waiting in the service queue (admitted, not yet placed).")
        self._inbox_depth = reg.gauge(
            "repro_service_inbox_depth",
            "Admitted jobs sitting in the priority inbox, not yet fed to "
            "the engine (admission backpressure).")
        self._jobs_by_state = reg.gauge(
            "repro_service_jobs",
            "Jobs currently in each lifecycle state.", ("state",))
        self._submit_latency = reg.histogram(
            "repro_service_submission_latency_seconds",
            "Wall-clock latency of one submission (receipt to journaled).",
            buckets=_SUBMIT_BUCKETS)
        self._journal_latency = reg.histogram(
            "repro_service_journal_write_latency_seconds",
            "Wall-clock latency of one sqlite journal write (submission "
            "or state transition) — the soak harness's stall detector.",
            buckets=_SUBMIT_BUCKETS)

    def submission(self, decision: str, latency_s: float) -> None:
        """Record one POST /submit: its ruling and its wall latency."""
        self._submissions.inc()
        self._admissions.inc(decision=decision)
        self._submit_latency.observe(latency_s)

    def cancellation(self, phase: str) -> None:
        self._cancellations.inc(phase=phase)

    def eviction(self) -> None:
        self._evictions.inc()

    def set_queue_depth(self, depth: int) -> None:
        self._queue_depth.set(depth)

    def set_inbox_depth(self, depth: int) -> None:
        self._inbox_depth.set(depth)

    def journal_write(self, latency_s: float) -> None:
        """Record one sqlite journal write's wall-clock latency."""
        self._journal_latency.observe(latency_s)

    def set_jobs_by_state(self, counts: dict) -> None:
        for state, n in counts.items():
            self._jobs_by_state.set(n, state=state)

