"""Live run snapshots for the introspection server.

The simulation runs in one thread; the introspection server
(:mod:`repro.obs.server`) answers HTTP requests from others.  Rather
than locking the mutable :class:`~repro.sim.cluster.ClusterState` —
which would make readers perturb the simulation and break the
bit-identical guarantee — the sim thread periodically *publishes* an
immutable :class:`RunSnapshot` into a :class:`SnapshotPublisher`.
Publishing is a single attribute assignment (atomic under the GIL), so
readers always see either the previous complete snapshot or the next
one, never a half-built state, and the sim thread never blocks on a
reader.

:class:`SnapshotObserver` is the :class:`~repro.sim.hooks.SimObserver`
that builds snapshots.  ``Simulator.start`` binds it to the run
(``bind_simulation``) so it can read queue depth, per-machine free
GPUs, the allocation epoch and placement-cache counters directly from
the live cluster, and it republishes at every decision-round boundary
— the same cadence Algorithm 1 wakes the scheduler on.  Given a
:class:`~repro.obs.timeseries.TimeSeriesStore`, each publish also
samples it, so ``/timeseries`` and ``/cluster`` move with ``/state``:
on one throttle, and (in the service daemon) only after a commit.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from repro.sim.hooks import BaseObserver

#: snapshot document version served under ``/state`` (2: job_states
#: table added for service mode; 3: decision_stats — provenance
#: recorder recorded/dropped counters; 4: events_seen removed)
STATE_SCHEMA_VERSION = 4


@dataclass(frozen=True)
class RunSnapshot:
    """One immutable point-in-time view of a simulation run.

    Everything the ``/state`` and ``/healthz`` endpoints serve; the
    ``wall_time`` stamp is *observer-side* wall clock (used only for
    liveness ages, never fed back into the simulation).
    """

    scheduler: str = ""
    sim_time: float = 0.0
    wall_time: float = 0.0
    decision_rounds: int = 0
    queue_depth: int = 0
    running_jobs: tuple[str, ...] = ()
    queued_jobs: tuple[str, ...] = ()
    gpus_busy: int = 0
    total_gpus: int = 0
    free_gpus_by_machine: tuple[tuple[str, int], ...] = ()
    allocation_epoch: int = 0
    placement_cache: tuple[tuple[str, float], ...] = ()
    finished: bool = False
    makespan: float = 0.0
    #: service-mode job table: a read-only job_id -> lifecycle state
    #: view of the daemon's state machine, in insertion order (sorted
    #: by id only when rendered); empty for plain one-shot simulations
    job_states: Mapping[str, str] = field(
        default_factory=lambda: MappingProxyType({}), hash=False
    )
    #: provenance-recorder counters ((name, value) pairs: recorded and
    #: dropped decision records); empty without a recorder attached
    decision_stats: tuple[tuple[str, int], ...] = ()

    def to_dict(self) -> dict:
        # built field by field, not with ``dataclasses.asdict``, which
        # deep-copies every container; the key order (field order,
        # then ``schema``) is part of the /state document
        return {
            "scheduler": self.scheduler,
            "sim_time": self.sim_time,
            "wall_time": self.wall_time,
            "decision_rounds": self.decision_rounds,
            "queue_depth": self.queue_depth,
            "running_jobs": list(self.running_jobs),
            "queued_jobs": list(self.queued_jobs),
            "gpus_busy": self.gpus_busy,
            "total_gpus": self.total_gpus,
            "free_gpus_by_machine": dict(self.free_gpus_by_machine),
            "allocation_epoch": self.allocation_epoch,
            "placement_cache": dict(self.placement_cache),
            "finished": self.finished,
            "makespan": self.makespan,
            "job_states": dict(sorted(self.job_states.items())),
            "decision_stats": dict(self.decision_stats),
            "schema": STATE_SCHEMA_VERSION,
        }


class SnapshotPublisher:
    """Single-slot atomic handoff between the sim thread and readers.

    ``publish`` swaps in a complete immutable snapshot; ``snapshot``
    reads whatever was last published (or ``None`` before the run
    starts).  Both are single reference operations — no locks, no
    copies on the read side.
    """

    def __init__(self) -> None:
        self._snapshot: RunSnapshot | None = None

    @property
    def snapshot(self) -> RunSnapshot | None:
        return self._snapshot

    def publish(self, snapshot: RunSnapshot) -> None:
        self._snapshot = snapshot


class SnapshotObserver(BaseObserver):
    """Publish a fresh :class:`RunSnapshot` at decision-round cadence.

    A pure tap: it reads cluster/scheduler state inside the sim thread
    (where every other observer already runs) and only ever *writes*
    the publisher slot.  ``clock`` is the wall-time source for
    liveness stamps and is injectable for deterministic tests.

    Rebuilding a full snapshot costs microseconds, which adds up when
    decision rounds tick far faster than any scraper reads — so
    rebuilds are throttled to one per ``min_publish_interval_s`` of
    wall clock (default 50 ms, i.e. at most ~20 rebuilds/s no matter
    the round rate).  Throttling consults only the observer-side wall
    clock and the publisher slot, never simulation state, so results
    stay bit-identical.  The bind-time and end-of-run snapshots always
    publish.

    Between :meth:`hold` and :meth:`release` a due republish is only
    noted, and ``release`` performs it: the service daemon holds each
    loop iteration so ``/state`` is rebuilt only after the iteration's
    journal commit, never from state the journal may yet lose.

    ``timeseries`` is the store behind ``/timeseries`` and
    ``/cluster``; every publish samples it at the snapshot's
    simulation time (the makespan for the terminal one) and queue
    depth.
    """

    def __init__(
        self,
        publisher: SnapshotPublisher | None = None,
        *,
        scheduler: str = "",
        clock=time.time,
        min_publish_interval_s: float = 0.05,
        job_states_source=None,
        timeseries=None,
    ) -> None:
        self.publisher = publisher if publisher is not None else SnapshotPublisher()
        self.scheduler = scheduler
        self.clock = clock
        self.min_publish_interval_s = min_publish_interval_s
        #: optional callable returning a fresh job_id -> state dict the
        #: snapshot may keep — the service daemon points this at its
        #: state machine's copy, so ``/state`` carries the full
        #: lifecycle view
        self.job_states_source = job_states_source
        self.timeseries = timeseries
        self._last_publish = float("-inf")
        self._held = False
        self._due = False
        self._rounds = 0
        self._sim = None
        self._total_gpus = 0

    # ------------------------------------------------------------------
    def bind_simulation(self, sim) -> None:
        """Called by ``Simulator.start``; publishes the first snapshot."""
        self._sim = sim
        self._total_gpus = len(sim.topo.gpus())
        if not self.scheduler:
            self.scheduler = sim.scheduler.name
        self._publish()

    def _decision_stats(self) -> tuple[tuple[str, int], ...]:
        recorder = self._sim.decision_recorder
        if recorder is None:
            return ()
        counts = recorder.counts()
        return (
            ("recorded", counts["recorded"]),
            ("dropped", counts["dropped"]),
        )

    # ------------------------------------------------------------------
    def _build(self, *, finished: bool = False, makespan: float = 0.0) -> RunSnapshot:
        job_states = MappingProxyType(
            self.job_states_source()
            if self.job_states_source is not None
            else {}
        )
        cluster = self._sim.cluster
        alloc = cluster.alloc
        free_by_machine = tuple(
            (m, alloc.free_count(m)) for m in sorted(cluster.topo.machines())
        )
        stats = cluster.engine.stats.as_dict()
        queued = tuple(j.job_id for j in self._sim.scheduler.queued_jobs())
        return RunSnapshot(
            scheduler=self.scheduler,
            sim_time=cluster.now,
            wall_time=self.clock(),
            decision_rounds=self._rounds,
            queue_depth=len(queued),
            running_jobs=tuple(sorted(cluster.running)),
            queued_jobs=queued,
            gpus_busy=alloc.busy_count(),
            total_gpus=self._total_gpus,
            free_gpus_by_machine=free_by_machine,
            allocation_epoch=alloc.version,
            placement_cache=tuple(sorted(stats.items())),
            finished=finished,
            makespan=makespan,
            job_states=job_states,
            decision_stats=self._decision_stats(),
        )

    def _publish(self, **kwargs) -> None:
        self._last_publish = self.clock()
        snapshot = self._build(**kwargs)
        self.publisher.publish(snapshot)
        if self.timeseries is not None:
            t = snapshot.makespan if snapshot.finished else snapshot.sim_time
            self.timeseries.sample(
                self._sim.cluster, t, snapshot.queue_depth
            )

    def hold(self) -> None:
        """Defer round-boundary republishes until :meth:`release`."""
        self._held = True

    def release(self) -> bool:
        """Stop deferring; publish now if a republish came due, and
        return whether it did."""
        self._held = False
        if not self._due:
            return False
        self._due = False
        self._publish()
        return True

    def publish_now(self) -> None:
        """Force an immediate republish, bypassing the throttle.

        The service daemon calls this to settle ``/state`` and
        ``/timeseries`` once its loop is idle (see
        :meth:`next_publish_in`)."""
        self._publish()

    def next_publish_in(self) -> float:
        """Seconds until the throttle allows the next rebuild (<= 0:
        allowed now; never more than one interval, even when the wall
        clock steps back)."""
        interval = self.min_publish_interval_s
        return min(self._last_publish + interval - self.clock(), interval)

    # ------------------------------------------------------------------
    # SimObserver hook: republish at round boundaries
    # ------------------------------------------------------------------
    def on_decision_round(self, t, placed, queued, elapsed_s):
        self._rounds += 1
        if self.clock() - self._last_publish >= self.min_publish_interval_s:
            if self._held:
                self._due = True
            else:
                self._publish()

    # ------------------------------------------------------------------
    def finalize_result(self, result) -> None:
        """Publish the terminal snapshot once the run has a result."""
        self._publish(finished=True, makespan=result.makespan)
