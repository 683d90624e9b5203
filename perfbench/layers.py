"""Which program functions the traced run wraps, and what it reports.

Layers are named after the program's modules: ``core`` (constraints
and prefilter, DRB, FM, utility, placement), ``sched`` (schedulers),
``sim`` (the engine), ``obs`` (observer fan-out and the read
endpoints), ``svc`` (the service daemon) and the interpreter's ``gc``.
``PER_LAYER`` lists every per-layer metric with its unit; a traced run
prints all of them for every workload, zero where a layer did no work.
"""

from __future__ import annotations

import time

from tracer import clock, percentile

#: the engine's decision-round clock in every measured process: the
#: round's own CPU time.  With the default wall clock the daemon's
#: round p99 doubled whenever its HTTP threads or another tenant of the
#: machine held the CPU or the GIL mid-round.
ROUND_CLOCK = time.thread_time

#: the daemon's default taps (observer class -> fan-out label); the
#: engine's own record keeping counts as ``sim.round`` self time
OBSERVER_LABELS = {
    "_LifecycleBridge": "lifecycle",
    "TelemetryObserver": "telemetry",
    "SnapshotObserver": "snapshots",
    "TimeSeriesSampler": "timeseries",
    "DecisionRecorder": "provenance",
}
FANOUT = tuple(OBSERVER_LABELS.values())
HOOKS = (
    "on_arrival", "on_place", "on_finish", "on_failure", "on_requeue",
    "on_evict", "on_decision_round",
)
#: spans whose duration list is kept for a tail percentile
TAILS = (
    "core.propose", "sched.schedule", "sim.step",
    "svc.journal.http", "svc.journal.loop",
)

PER_LAYER = [
    ("core.filter_hosts.calls", "count"),
    ("core.filter_hosts.self_ms", "ms"),
    ("core.prefilter.prune_rate", "ratio"),
    ("core.drb_map.calls", "count"),
    ("core.drb_map.self_ms", "ms"),
    ("core.fm.calls", "count"),
    ("core.fm.self_ms", "ms"),
    ("core.drb.split_reuse_rate", "ratio"),
    ("core.propose.calls", "count"),
    ("core.propose.self_ms", "ms"),
    ("core.propose.p99_ms", "ms"),
    ("core.propose.yield", "ratio"),
    ("core.utility.calls", "count"),
    ("core.utility.self_ms", "ms"),
    ("core.p2p_attainable.calls", "count"),
    ("core.p2p_attainable.self_ms", "ms"),
    ("core.memo.hits", "count"),
    ("core.memo.lookups", "count"),
    ("sched.schedule.calls", "count"),
    ("sched.schedule.self_ms", "ms"),
    ("sched.schedule.p99_ms", "ms"),
    ("sched.evictions", "count"),
    ("sched.probes", "count"),
    ("sched.probe_yield", "ratio"),
    ("sim.step.self_ms", "ms"),
    ("sim.round.self_ms", "ms"),
    ("sim.refresh_rates.self_ms", "ms"),
    ("sim.decision_rounds", "count"),
    ("sim.preemptions", "count"),
    ("sim.migrations", "count"),
    ("sim.makespan_s", "s"),
    ("sim.mean_qos_slowdown", "ratio"),
    ("sim.mean_waiting_s", "s"),
    ("sim.slo_violations", "count"),
    ("gc.pause_ms", "ms"),
    ("gc.max_pause_ms", "ms"),
    ("gc.collections", "count"),
    ("svc.http.self_ms", "ms"),
    ("svc.submit.self_ms", "ms"),
    ("svc.admission.self_ms", "ms"),
    ("svc.journal.http.writes", "count"),
    ("svc.journal.http.self_ms", "ms"),
    ("svc.journal.http.p99_ms", "ms"),
    ("svc.journal.loop.writes", "count"),
    ("svc.journal.loop.self_ms", "ms"),
    ("svc.journal.loop.p99_ms", "ms"),
    ("svc.inbox_wait.p50_ms", "ms"),
    ("svc.inbox_wait.p99_ms", "ms"),
    ("svc.loop.step_ms", "ms"),
    *[
        (f"obs.fanout.{label}.{field}", unit)
        for label in FANOUT
        for field, unit in (("calls", "count"), ("self_ms", "ms"))
    ],
    ("obs.decision_records", "count"),
    ("obs.decisions_dropped", "count"),
    ("obs.read.state.self_ms", "ms"),
    ("obs.read.metrics.self_ms", "ms"),
    ("client.submit_p50_ms", "ms"),
    ("client.submit_p99_ms", "ms"),
    ("client.place_p50_ms", "ms"),
    ("client.place_p99_ms", "ms"),
    ("client.read_p50_ms", "ms"),
    ("client.read_p99_ms", "ms"),
    ("client.lateness_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.round_p50_overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
]


def _job_tag(args, kwargs):
    return args[1].job_id


def install(tracer) -> None:
    """Wrap the core, sched, sim and obs layers (every workload)."""
    from repro.core import drb, placement
    from repro.core.placement import PlacementEngine
    from repro.obs.server import IntrospectionServer
    from repro.schedulers.topo import TopoAwareScheduler
    from repro.sim.cluster import ClusterState
    from repro.sim.engine import Simulator

    rounds = iter(range(1 << 62))
    tracer.wrap(placement, "filter_hosts", "core.filter_hosts")
    tracer.wrap(placement, "drb_map", "core.drb_map")
    # the physical split of DRB (repro.core.bipartition): FM over GPU
    # affinity, or the machine/socket/switch boundary when one exists
    tracer.wrap(drb, "physical_bipartition", "core.fm")
    tracer.wrap(placement, "evaluate_solution", "core.utility.evaluate")
    tracer.wrap(PlacementEngine, "score_allocation", "core.utility.score")
    tracer.wrap(PlacementEngine, "propose", "core.propose", _job_tag)
    tracer.wrap(PlacementEngine, "p2p_attainable", "core.p2p_attainable")
    tracer.wrap(
        TopoAwareScheduler, "schedule", "sched.schedule",
        lambda a, k: next(rounds),
    )
    tracer.wrap(TopoAwareScheduler, "_preempt_pass", "sched.preempt_pass")
    tracer.wrap(TopoAwareScheduler, "_defrag_pass", "sched.defrag_pass")
    tracer.wrap(Simulator, "step", "sim.step")
    tracer.wrap(Simulator, "run_round", "sim.round")
    tracer.wrap(ClusterState, "refresh_rates", "sim.refresh_rates")
    tracer.wrap(IntrospectionServer, "render_state", "obs.read.state")
    tracer.wrap(IntrospectionServer, "render_metrics", "obs.read.metrics")

    start = Simulator.start

    def traced_start(self):
        out = start(self)
        for observer in self._notify.observers:
            label = OBSERVER_LABELS.get(type(observer).__name__)
            if label is None:
                continue
            for hook in HOOKS:
                if hasattr(observer, hook):
                    tracer.wrap(observer, hook, f"obs.fanout.{label}")
        return out

    Simulator.start = traced_start


def install_service(tracer, marks: dict) -> None:
    """Wrap the service layer; ``marks`` collects per-job inbox stamps
    (job id -> [enqueued, popped])."""
    from repro.obs import server
    from repro.service.daemon import SchedulerService
    from repro.service.queue import QueueManager
    from repro.service.store import ServiceStore

    tracer.wrap(server._Handler, "do_POST", "svc.http.post")
    tracer.wrap(server._Handler, "do_GET", "svc.http.get")
    tracer.wrap(
        SchedulerService, "submit", "svc.submit",
        lambda a, k: a[1].get("id"),
    )
    tracer.wrap(QueueManager, "admit_and_reserve", "svc.admission")
    tracer.wrap(ServiceStore, "journal_submission", "svc.journal.http")
    tracer.wrap(ServiceStore, "journal_transition", "svc.journal.loop")

    enqueue = QueueManager.enqueue
    pop_batch = QueueManager.pop_batch

    def stamped_enqueue(self, job, priority=0):
        marks[job.job_id] = [clock(), None]
        return enqueue(self, job, priority)

    def stamped_pop_batch(self, limit=None):
        out = pop_batch(self, limit)
        now = clock()
        for entry in out:
            mark = marks.get(entry.job.job_id)
            if mark is not None:
                mark[1] = now
        return out

    QueueManager.enqueue = stamped_enqueue
    QueueManager.pop_batch = stamped_pop_batch


def make_round_tap():
    """An observer keeping the engine's own elapsed time of every
    decision round that had work: it placed a job or proposed one.

    Rounds whose queue held only jobs the capacity check rejects cost
    as little as empty rounds (~0.01 ms) and are excluded with them.
    Proposals are read off the placement memo's own lookup counter,
    which every ``PlacementEngine.propose`` call advances; call
    ``bind(engine)`` before the run.
    """
    from repro.sim.hooks import BaseObserver

    class RoundTap(BaseObserver):
        def __init__(self) -> None:
            self.rounds_ms: list[float] = []
            self.placements = 0
            self._stats = None
            self._lookups = 0

        def bind(self, engine) -> None:
            self._stats = engine.stats
            self._lookups = engine.stats.lookups

        def on_decision_round(self, t, placed, queued, elapsed_s):
            lookups = self._stats.lookups
            if placed or lookups != self._lookups:
                self.rounds_ms.append(elapsed_s * 1e3)
                self.placements += len(placed)
            self._lookups = lookups

    return RoundTap()


def engine_counters(result, recorder=None) -> dict:
    """The program's own exact counters (counts, not timings) from a
    ``SimulationResult`` and the decision recorder, if any."""
    return {
        "placement_stats": result.placement_stats,
        "drb_stats": result.drb_stats,
        "prefilter_stats": result.prefilter_stats,
        "decision_rounds": result.decision_rounds,
        "preemptions": sum(r.preemptions for r in result.records),
        "migrations": sum(r.migrations for r in result.records),
        "decision_records": 0 if recorder is None else recorder.recorded_total,
        "decision_records_dropped":
            0 if recorder is None else recorder.dropped_total,
    }


def layer_metrics(summary: dict, counters: dict, placements: int) -> dict:
    """Per-layer metric values from one traced process.

    ``summary`` is :meth:`Tracer.summary`; ``counters`` is
    :func:`engine_counters`; ``placements`` counts the placements of
    the traced rounds (the numerator of ``core.propose.yield``).
    """
    stats = summary["stats"]
    tails = summary["tails_ms"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def self_ms(*names):
        return sum(stats.get(n, [0, 0.0, 0.0])[2] for n in names) * 1e3

    pairs = {(p, c): n for p, c, n in summary["pairs"]}
    probes = (
        pairs.get(("sched.preempt_pass", "core.propose"), 0)
        + pairs.get(("sched.defrag_pass", "core.propose"), 0)
    )
    evictions = counters["preemptions"] + counters["migrations"]
    proposals = calls("core.propose")
    memo = counters["placement_stats"]
    pauses = summary["gc_pauses_ms"]
    step_ms = summary["durations_ms"].get("sim.step", [])
    out = {
        "core.filter_hosts.calls": calls("core.filter_hosts"),
        "core.filter_hosts.self_ms": self_ms("core.filter_hosts"),
        "core.prefilter.prune_rate":
            counters["prefilter_stats"].get("prune_rate", 0.0),
        "core.drb_map.calls": calls("core.drb_map"),
        "core.drb_map.self_ms": self_ms("core.drb_map"),
        "core.fm.calls": calls("core.fm"),
        "core.fm.self_ms": self_ms("core.fm"),
        "core.drb.split_reuse_rate":
            counters["drb_stats"].get("split_reuse_rate", 0.0),
        "core.propose.calls": proposals,
        "core.propose.self_ms": self_ms("core.propose"),
        "core.propose.p99_ms": tails.get("core.propose", 0.0),
        "core.propose.yield": placements / proposals if proposals else 0.0,
        "core.utility.calls":
            calls("core.utility.evaluate") + calls("core.utility.score"),
        "core.utility.self_ms":
            self_ms("core.utility.evaluate", "core.utility.score"),
        "core.p2p_attainable.calls": calls("core.p2p_attainable"),
        "core.p2p_attainable.self_ms": self_ms("core.p2p_attainable"),
        "core.memo.hits": memo["hits"],
        "core.memo.lookups": memo["hits"] + memo["misses"],
        "sched.schedule.calls": calls("sched.schedule"),
        "sched.schedule.self_ms":
            self_ms("sched.schedule", "sched.preempt_pass",
                    "sched.defrag_pass"),
        "sched.schedule.p99_ms": tails.get("sched.schedule", 0.0),
        "sched.evictions": evictions,
        "sched.probes": probes,
        "sched.probe_yield": evictions / probes if probes else 0.0,
        "sim.step.self_ms": self_ms("sim.step"),
        "sim.round.self_ms": self_ms("sim.round"),
        "sim.refresh_rates.self_ms": self_ms("sim.refresh_rates"),
        "sim.decision_rounds": counters["decision_rounds"],
        "sim.preemptions": counters["preemptions"],
        "sim.migrations": counters["migrations"],
        "gc.pause_ms": sum(pauses),
        "gc.max_pause_ms": max(pauses, default=0.0),
        "gc.collections": len(pauses),
        "svc.http.self_ms": self_ms("svc.http.post", "svc.http.get"),
        "svc.submit.self_ms": self_ms("svc.submit"),
        "svc.admission.self_ms": self_ms("svc.admission"),
        "svc.journal.http.writes": calls("svc.journal.http"),
        "svc.journal.http.self_ms": self_ms("svc.journal.http"),
        "svc.journal.http.p99_ms": tails.get("svc.journal.http", 0.0),
        "svc.journal.loop.writes": calls("svc.journal.loop"),
        "svc.journal.loop.self_ms": self_ms("svc.journal.loop"),
        "svc.journal.loop.p99_ms": tails.get("svc.journal.loop", 0.0),
        # per-job inbox stamps exist only in the daemon (run.py)
        "svc.inbox_wait.p50_ms": 0.0,
        "svc.inbox_wait.p99_ms": 0.0,
        "svc.loop.step_ms": (
            percentile(step_ms, 50)
            if calls("svc.http.post") else 0.0
        ),
        "obs.decision_records": counters["decision_records"],
        "obs.decisions_dropped": counters["decision_records_dropped"],
        "obs.read.state.self_ms": self_ms("obs.read.state"),
        "obs.read.metrics.self_ms": self_ms("obs.read.metrics"),
    }
    for label in FANOUT:
        name = f"obs.fanout.{label}"
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_ms"] = self_ms(name)
    return out
