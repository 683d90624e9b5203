"""Continuous telemetry: an in-process ring-buffer time-series store.

The point-in-time surfaces (``/metrics``, ``/state``) answer "what is
the cluster doing *now*"; this module answers "how did it get there".
A :class:`TimeSeriesStore` holds one :class:`TieredSeries` per signal —
cluster-wide scalars (queue depth, running jobs, busy GPUs,
utilization, Eq. 5 fragmentation) plus three **per-machine** series
(GPU occupancy, fragmentation score, link-sharing load) — and the
:class:`TimeSeriesSampler` observer feeds them at decision-round
cadence from inside the sim/loop thread.

Tiered downsampling keeps a multi-hour soak in bounded memory.  Each
series is three rings:

* **raw** — the last ``capacity`` samples as ``(t, value)`` points;
* **mid** — every ``fanout`` raw samples collapse into one
  ``(t, min, mean, max)`` point (10x compression by default);
* **coarse** — every ``fanout`` mid points collapse again (100x).

Retention math with the defaults (capacity 512, fanout 10): the coarse
tier alone spans ``512 * 100 = 51_200`` samples — at the sampler's
50 ms wall-clock floor that is over 40 minutes of full-rate history
and *hours* at any realistic round rate, in ``3 * 512`` tuples per
series, forever.  Memory never grows with run length.

Thread model (the provenance-ring idiom): the sim/loop thread is the
only writer; ``deque.append`` with a ``maxlen`` is atomic under the
GIL, and HTTP reader threads snapshot with ``list(deque)`` — no locks,
no reader ever perturbs the simulation.  The sampler is a pure tap:
its throttle consults only observer-side wall clock, never simulation
state, so results stay bit-identical with it attached (pinned by the
fast-path A/B equivalence test) and its per-sample cost is pinned
< 3 % by ``benchmarks/test_obs_overhead.py``.
"""

from __future__ import annotations

import time
from collections import deque

from repro.sim.hooks import BaseObserver

#: document version served under ``/timeseries`` and ``/cluster``
TIMESERIES_SCHEMA_VERSION = 1

#: tier names, finest first (also the serving order)
TIERS = ("raw", "mid", "coarse")

#: per-machine series names the sampler maintains
MACHINE_SERIES = ("occupancy", "fragmentation", "link_load")

#: cluster-wide series names the sampler maintains
CLUSTER_SERIES = (
    "queue_depth",
    "running_jobs",
    "gpus_busy",
    "utilization",
    "fragmentation",
)


class TieredSeries:
    """One signal's history: raw ring + 10x and 100x aggregate rings.

    Single-writer: only the sampling thread calls :meth:`append`.
    Readers call :meth:`points` / :attr:`latest`, which touch nothing
    but the deques (snapshot via ``list``, atomic under the GIL).
    """

    __slots__ = ("raw", "mid", "coarse", "_mid_bucket", "_coarse_bucket",
                 "fanout")

    def __init__(self, capacity: int = 512, fanout: int = 10) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if fanout < 2:
            raise ValueError("fanout must be >= 2")
        self.fanout = fanout
        self.raw: deque = deque(maxlen=capacity)
        self.mid: deque = deque(maxlen=capacity)
        self.coarse: deque = deque(maxlen=capacity)
        # writer-only accumulation state for the next aggregate point
        self._mid_bucket: list = []
        self._coarse_bucket: list = []

    def append(self, t: float, value: float) -> None:
        self.raw.append((t, value))
        bucket = self._mid_bucket
        bucket.append(value)
        if len(bucket) >= self.fanout:
            point = (
                t,
                min(bucket),
                sum(bucket) / len(bucket),
                max(bucket),
            )
            self.mid.append(point)
            bucket.clear()
            coarse = self._coarse_bucket
            coarse.append(point)
            if len(coarse) >= self.fanout:
                self.coarse.append((
                    t,
                    min(p[1] for p in coarse),
                    sum(p[2] for p in coarse) / len(coarse),
                    max(p[3] for p in coarse),
                ))
                coarse.clear()

    @property
    def latest(self) -> tuple[float, float] | None:
        """The newest raw ``(t, value)`` point, or ``None`` if empty."""
        try:
            return self.raw[-1]
        except IndexError:
            return None

    def points(self, tier: str = "raw") -> list:
        """Snapshot one tier's ring, oldest first."""
        if tier not in TIERS:
            raise ValueError(f"unknown tier {tier!r} (known: {TIERS})")
        return list(getattr(self, tier))

    def to_dict(self) -> dict:
        """All three tiers as JSON-ready lists of lists."""
        return {tier: [list(p) for p in self.points(tier)] for tier in TIERS}

    def __len__(self) -> int:
        return len(self.raw)


class TimeSeriesStore:
    """All series of one run/daemon, keyed ``(name, machine)``.

    ``machine == ""`` marks a cluster-wide series.  The writer creates
    series lazily on first append; readers iterate a shallow snapshot
    of the key table, so concurrent creation never trips them.
    """

    def __init__(self, capacity: int = 512, fanout: int = 10) -> None:
        self.capacity = capacity
        self.fanout = fanout
        self.samples_taken = 0
        self._series: dict[tuple[str, str], TieredSeries] = {}

    # ------------------------------------------------------------------
    # write side (sampling thread only)
    # ------------------------------------------------------------------
    def series(self, name: str, machine: str = "") -> TieredSeries:
        key = (name, machine)
        existing = self._series.get(key)
        if existing is None:
            existing = TieredSeries(self.capacity, self.fanout)
            self._series[key] = existing
        return existing

    def record(self, t: float, name: str, value: float,
               machine: str = "") -> None:
        self.series(name, machine).append(t, value)

    # ------------------------------------------------------------------
    # read side (any thread)
    # ------------------------------------------------------------------
    def get(self, name: str, machine: str = "") -> TieredSeries | None:
        return self._series.get((name, machine))

    def machines(self) -> list[str]:
        return sorted({m for _, m in list(self._series) if m})

    def document(self) -> dict:
        """The full ``/timeseries`` body: every series, every tier."""
        cluster: dict[str, dict] = {}
        machines: dict[str, dict] = {}
        for (name, machine), series in list(self._series.items()):
            target = cluster if not machine else machines.setdefault(
                machine, {}
            )
            target[name] = series.to_dict()
        return {
            "schema": TIMESERIES_SCHEMA_VERSION,
            "enabled": True,
            "capacity": self.capacity,
            "fanout": self.fanout,
            "samples": self.samples_taken,
            "tiers": list(TIERS),
            "cluster": cluster,
            "machines": machines,
        }

    def cluster_document(self) -> dict:
        """The ``/cluster`` body: latest per-machine heatmap values."""
        machines: dict[str, dict] = {}
        t_latest = 0.0
        for (name, machine), series in list(self._series.items()):
            if not machine:
                continue
            latest = series.latest
            if latest is None:
                continue
            t_latest = max(t_latest, latest[0])
            machines.setdefault(machine, {})[name] = latest[1]
        return {
            "schema": TIMESERIES_SCHEMA_VERSION,
            "enabled": True,
            "t": t_latest,
            "samples": self.samples_taken,
            "machines": {m: machines[m] for m in sorted(machines)},
        }


class TimeSeriesSampler(BaseObserver):
    """Feed the store from the decision-round stream.  A pure tap.

    Samples at round cadence, throttled two ways: ``every_rounds``
    skips rounds outright (deterministic, for dense scenarios) and
    ``min_interval_s`` rate-limits on *observer-side* wall clock (so a
    storm of sub-millisecond rounds cannot make sampling the hot path).
    Neither consults simulation state, preserving bit-identity.  Sample
    timestamps are **simulation** time, so recorded series are
    reproducible run-to-run when the wall throttle is disabled.

    ``machine_series=False`` drops the per-machine sweep (the O(1)
    cluster scalars remain) for fleets so large that even throttled
    per-machine sampling would matter.
    """

    def __init__(
        self,
        store: TimeSeriesStore | None = None,
        *,
        every_rounds: int = 1,
        min_interval_s: float = 0.05,
        machine_series: bool = True,
        clock=time.monotonic,
    ) -> None:
        if every_rounds < 1:
            raise ValueError("every_rounds must be >= 1")
        self.store = store if store is not None else TimeSeriesStore()
        self.every_rounds = every_rounds
        self.min_interval_s = min_interval_s
        self.machine_series = machine_series
        self.clock = clock
        self._rounds = 0
        self._last_sample = float("-inf")
        self._cluster = None
        self._machines: tuple[str, ...] = ()
        self._machine_gpus: dict[str, int] = {}
        #: per machine ``(name, GPU count, occupancy, fragmentation,
        #: link_load series)``, made by the first per-machine sweep
        self._rows: tuple = ()
        self._total_gpus = 0

    # ------------------------------------------------------------------
    def bind_simulation(self, sim) -> None:
        """Read the cluster signals off ``sim`` (``Simulator.start``)."""
        self._cluster = sim.cluster
        topo = sim.topo
        self._machines = tuple(sorted(topo.machines()))
        self._machine_gpus = {
            m: len(topo.gpus(machine=m)) for m in self._machines
        }
        self._total_gpus = len(topo.gpus())
        self._rows = ()

    # ------------------------------------------------------------------
    def _link_load(self, alloc, machine: str) -> float:
        """Link-sharing load: mean excess multiplicity of bus links.

        For the jobs holding GPUs on ``machine``, charge each job's bus
        footprint (:meth:`AllocationState.links_used`, LRU-cached) to
        its links and report ``total_claims / distinct_links - 1`` —
        0 when no link is shared, rising as co-located jobs pile onto
        the same buses (the contention channel Eq. 2's penalty models).
        """
        jobs = alloc.jobs_on_machine(machine)
        if len(jobs) < 2:
            return 0.0
        claims = 0
        distinct: set = set()
        for job_id in jobs:
            links = alloc.links_used(alloc.gpus_of(job_id))
            claims += len(links)
            distinct.update(links)
        if not distinct:
            return 0.0
        return claims / len(distinct) - 1.0

    def sample(self, t: float, queued: int) -> None:
        """Take one sample now (bypasses both throttles)."""
        cluster = self._cluster
        store = self.store
        alloc = cluster.alloc
        busy = alloc.busy_count()
        total = self._total_gpus
        store.record(t, "queue_depth", float(queued))
        store.record(t, "running_jobs", float(len(cluster.running)))
        store.record(t, "gpus_busy", float(busy))
        store.record(t, "utilization", busy / total if total else 0.0)
        fractions = alloc.socket_free_fractions()
        store.record(t, "fragmentation", alloc.fragmentation(None, fractions))
        if self.machine_series:
            rows = self._rows
            if not rows:
                rows = self._rows = tuple(
                    (
                        machine,
                        self._machine_gpus[machine],
                        store.series("occupancy", machine),
                        store.series("fragmentation", machine),
                        store.series("link_load", machine),
                    )
                    for machine in self._machines
                )
            for machine, m_total, occupancy, fragmentation, link_load in rows:
                free = alloc.free_count(machine)
                occupancy.append(
                    t, (m_total - free) / m_total if m_total else 0.0
                )
                fragmentation.append(
                    t, alloc.fragmentation(machine, fractions)
                )
                link_load.append(t, self._link_load(alloc, machine))
        store.samples_taken += 1

    # ------------------------------------------------------------------
    # SimObserver hooks
    # ------------------------------------------------------------------
    def on_decision_round(self, t, placed, queued, elapsed_s):
        self._rounds += 1
        if self._rounds % self.every_rounds:
            return
        now = self.clock()
        if now - self._last_sample < self.min_interval_s:
            return
        self._last_sample = now
        self.sample(t, queued)

    def finalize_result(self, result) -> None:
        """Runner wiring: always capture the terminal state, so even a
        run shorter than one throttle window has history."""
        if self._cluster is not None:
            queue_series = self.store.get("queue_depth")
            latest = queue_series.latest if queue_series is not None else None
            # the queue is empty at a normal end of run; preserve the
            # last observed depth only if the clock has not advanced
            queued = 0
            if latest is not None and latest[0] >= result.makespan:
                queued = int(latest[1])
            self.sample(result.makespan, queued)


__all__ = [
    "CLUSTER_SERIES",
    "MACHINE_SERIES",
    "TIERS",
    "TIMESERIES_SCHEMA_VERSION",
    "TieredSeries",
    "TimeSeriesSampler",
    "TimeSeriesStore",
]
