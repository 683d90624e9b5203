"""SLO watchdog: declarative alert rules over the live telemetry.

Production schedulers page operators on queue-wait and fragmentation
regressions instead of waiting for post-mortem log analysis.  The
:class:`Watchdog` is a :class:`~repro.sim.hooks.SimObserver` that
evaluates a set of :class:`Rule` objects at every decision-round
boundary — the cadence Algorithm 1 already wakes the scheduler on —
against *signals* derived from the shared
:class:`~repro.obs.metrics.MetricsRegistry` and the hook stream
itself:

======================  ====================================================
signal                  meaning
======================  ====================================================
queue_depth             jobs waiting after the round
queue_wait_p95          p95 of arrival→placement delay (sim seconds,
                        bucket-interpolated via ``Histogram.quantile``)
utilization             allocated fraction of all cluster GPUs
cache_hit_rate          placement-memo hit rate (nan before any proposal)
starved_rounds          consecutive rounds with a non-empty queue and no
                        placements (no-fit / capacity-outcome storms)
postponements_total     TOPO-AWARE-P postponement count so far
requeues_total          failure-victim resubmissions so far
running_jobs            jobs currently executing
======================  ====================================================

A rule fires once its condition has held for ``for_rounds``
consecutive rounds (edge-triggered: it must clear before it can fire
again), records a schema-versioned ``alert`` record in the run's
decision flight recorder (when one is attached), increments
``repro_alerts_fired_total{scheduler,rule}``, and is collected into
the end-of-run summary the runner attaches to
:attr:`SimulationResult.alerts`.

**Windowed rules** evaluate a trailing window instead of the instant:
``window`` (rounds, default 1) and ``agg`` pick the aggregate the
threshold compares against — ``last`` (instantaneous, the default),
``mean``/``max``/``min`` over the window, or ``rate`` (per-round
change across the window) so alerts can fire on *trends*: a queue
whose depth grows every round pages long before any absolute
threshold trips.

**NaN policy** is explicit per rule.  Some signals have no value yet
(``cache_hit_rate`` is NaN before any proposal), and NaN compares
false under every operator — historically "no data" could silently
never page.  ``nan="skip"`` (the default) excludes NaN samples from
evaluation and leaves the rule's streak state untouched (no data is
neither healthy nor violating); ``nan="violate"`` treats a NaN sample
as a violation, for signals whose absence is itself the incident.

Signals are all derived from *simulation* state (sim time, sim-time
waits), never wall clock, so a rule that fires in a scenario fires
deterministically every run.  The watchdog is tap-only: attaching it
never changes scheduling decisions (pinned by the fast-path A/B
equivalence test).
"""

from __future__ import annotations

import json
import math
import operator
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Sequence

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.sim.hooks import BaseObserver

#: signal names rules may reference (validated at load time)
SIGNALS = (
    "queue_depth",
    "queue_wait_p95",
    "utilization",
    "cache_hit_rate",
    "starved_rounds",
    "postponements_total",
    "requeues_total",
    "running_jobs",
)

_OPS = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
}

#: window aggregates a rule may request over its trailing samples
AGGREGATES = ("last", "mean", "max", "min", "rate")

#: explicit NaN policies: ``skip`` leaves the rule's streak untouched
#: for that round; ``violate`` counts a NaN sample as a violation
NAN_POLICIES = ("skip", "violate")


@dataclass(frozen=True)
class Rule:
    """One declarative SLO rule: ``agg(signal, window) op threshold``
    sustained for ``for_rounds`` rounds."""

    name: str
    signal: str
    op: str
    threshold: float
    for_rounds: int = 1
    severity: str = "warning"
    description: str = ""
    #: trailing rounds the aggregate sees (1 = instantaneous)
    window: int = 1
    #: how the window collapses to one value: last/mean/max/min/rate
    agg: str = "last"
    #: what a NaN sample means: "skip" (default) or "violate"
    nan: str = "skip"

    def __post_init__(self) -> None:
        if self.signal not in SIGNALS:
            raise ValueError(
                f"rule {self.name!r}: unknown signal {self.signal!r} "
                f"(known: {', '.join(SIGNALS)})"
            )
        if self.op not in _OPS:
            raise ValueError(
                f"rule {self.name!r}: unknown operator {self.op!r} "
                f"(known: {', '.join(_OPS)})"
            )
        if self.for_rounds < 1:
            raise ValueError(f"rule {self.name!r}: for_rounds must be >= 1")
        if self.window < 1:
            raise ValueError(f"rule {self.name!r}: window must be >= 1")
        if self.agg not in AGGREGATES:
            raise ValueError(
                f"rule {self.name!r}: unknown agg {self.agg!r} "
                f"(known: {', '.join(AGGREGATES)})"
            )
        if self.nan not in NAN_POLICIES:
            raise ValueError(
                f"rule {self.name!r}: unknown nan policy {self.nan!r} "
                f"(known: {', '.join(NAN_POLICIES)})"
            )

    def violated(self, value: float) -> bool:
        # nan compares false under every operator; the explicit ``nan``
        # policy is applied in :meth:`evaluate`, before this comparison
        return _OPS[self.op](value, self.threshold)

    def evaluate(self, window_values) -> tuple[float, str]:
        """Collapse the trailing window to ``(value, action)``.

        ``action`` is ``"evaluate"`` (compare ``value`` against the
        threshold), ``"skip"`` (no usable data this round: leave the
        streak untouched) or ``"violate"`` (the NaN policy says a
        missing sample pages directly).
        """
        current = window_values[-1]
        if math.isnan(current) and self.nan == "violate":
            return math.nan, "violate"
        agg = self.agg
        if agg == "last":
            if math.isnan(current):
                return math.nan, "skip"
            return current, "evaluate"
        # hot path: a NaN anywhere poisons sum(), so one C-speed pass
        # detects it; without NaNs the aggregates run on the deque
        # directly, no intermediate list (this evaluates per rule per
        # round — its cost is pinned by the obs-overhead benchmark)
        n = len(window_values)
        total = sum(window_values)
        if not math.isnan(total):
            if agg == "mean":
                return total / n, "evaluate"
            if agg == "max":
                return max(window_values), "evaluate"
            if agg == "min":
                return min(window_values), "evaluate"
            # rate: per-round change across the window; needs two points
            if n < 2:
                return math.nan, "skip"
            return (current - window_values[0]) / (n - 1), "evaluate"
        finite = [v for v in window_values if not math.isnan(v)]
        if not finite:
            return math.nan, "skip"
        if agg == "mean":
            return sum(finite) / len(finite), "evaluate"
        if agg == "max":
            return max(finite), "evaluate"
        if agg == "min":
            return min(finite), "evaluate"
        if len(finite) < 2:
            return math.nan, "skip"
        return (finite[-1] - finite[0]) / (len(finite) - 1), "evaluate"


#: conservative defaults: silent on the paper's Scenario 1 workload,
#: loud on genuine regressions (saturated queues, dead clusters,
#: placement storms).  Thresholds are simulation-scale quantities.
DEFAULT_RULES: tuple[Rule, ...] = (
    Rule(
        name="queue-wait-p95-high",
        signal="queue_wait_p95",
        op=">",
        threshold=3600.0,
        for_rounds=5,
        severity="critical",
        description="p95 arrival->placement delay above one hour",
    ),
    Rule(
        name="utilization-collapse",
        signal="utilization",
        op="<",
        threshold=0.02,
        for_rounds=25,
        severity="critical",
        description="cluster essentially idle while work exists",
    ),
    Rule(
        name="placement-cache-degraded",
        signal="cache_hit_rate",
        op="<",
        threshold=0.01,
        # steady-state churn (Scenario 1) legitimately invalidates the
        # memo every round, so only a *long* zero-hit regime is a signal
        for_rounds=1000,
        severity="warning",
        description="placement memo no longer absorbing proposals",
    ),
    Rule(
        name="no-fit-storm",
        signal="starved_rounds",
        op=">=",
        threshold=50.0,
        for_rounds=1,
        severity="warning",
        description="many consecutive rounds placed nothing with jobs waiting",
    ),
    Rule(
        name="postponement-pileup",
        signal="postponements_total",
        op=">=",
        threshold=250.0,
        for_rounds=1,
        severity="warning",
        description="TOPO-AWARE-P deferrals piling up",
    ),
)


def load_rules(path: Path | str) -> tuple[Rule, ...]:
    """Load rules from a JSON or TOML file.

    Both formats share one shape: a top-level ``rules`` array of
    objects with the :class:`Rule` fields.  TOML needs the stdlib
    ``tomllib`` (Python >= 3.11); on older interpreters a ``.toml``
    file is a clear error rather than a silent fallback.
    """
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".toml":
        try:
            import tomllib
        except ImportError as exc:  # pragma: no cover - py<3.11 only
            raise ValueError(
                f"{path}: TOML rules need Python >= 3.11 (no tomllib); "
                "use the JSON format instead"
            ) from exc
        try:
            doc = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ValueError(f"{path}: not TOML: {exc}") from None
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("rules"), list):
        raise ValueError(f"{path}: expected a top-level 'rules' array")
    rules = []
    for i, raw in enumerate(doc["rules"]):
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: rules[{i}] is not an object")
        unknown = set(raw) - {
            "name", "signal", "op", "threshold", "for_rounds",
            "severity", "description", "window", "agg", "nan",
        }
        if unknown:
            raise ValueError(
                f"{path}: rules[{i}] has unknown fields {sorted(unknown)}"
            )
        try:
            rules.append(Rule(**raw))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: rules[{i}]: {exc}") from None
    if not rules:
        raise ValueError(f"{path}: 'rules' array is empty")
    return tuple(rules)


class _RuleState:
    """Mutable evaluation state for one rule."""

    __slots__ = ("violating_rounds", "active", "fired_count", "window")

    def __init__(self, rule: Rule) -> None:
        self.violating_rounds = 0
        self.active = False
        self.fired_count = 0
        #: trailing signal samples the rule's aggregate sees
        self.window: deque = deque(maxlen=rule.window)


class Watchdog(BaseObserver):
    """Evaluate SLO rules at decision-round boundaries.

    Shares the :class:`MetricsRegistry` with the
    :class:`~repro.obs.telemetry.TelemetryObserver` (attach the
    telemetry observer *first* so gauges are fresh when rules run —
    the CLI wiring guarantees this).  Every firing and resolution is
    also recorded as an ``alert`` record by the decision recorder of the
    simulation it is bound to, if that simulation has one.  Rounds are
    numbered from 0, like the recorder's ``round`` records, so an alert
    carries the number of the round it fired in.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        rules: Sequence[Rule] = DEFAULT_RULES,
        *,
        scheduler: str = "",
    ) -> None:
        self.registry = registry
        self.rules = tuple(rules)
        names = [r.name for r in self.rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rule names: {names}")
        self.scheduler = scheduler
        self.fired: list[dict] = []
        self._state = {rule.name: _RuleState(rule) for rule in self.rules}
        # hot loop: on_decision_round runs every rule every round, so
        # each rule carries its state and comparison pre-resolved, and
        # an instantaneous rule (window 1, ``last``) is flagged to skip
        # the window deque and the aggregate
        self._pairs = tuple(
            (
                rule,
                self._state[rule.name],
                rule.signal,
                _OPS[rule.op],
                rule.threshold,
                rule.window == 1 and rule.agg == "last",
            )
            for rule in self.rules
        )
        #: only the signals some rule reads are derived per round
        self._needed = frozenset(rule.signal for rule in self.rules)
        self._rounds = 0
        self._starved_rounds = 0
        # job id -> postponements already counted; dropped at the job's
        # terminal hook so the map holds live jobs only
        self._postponements: dict[str, int] = {}
        self._postponements_total = 0
        self._requeues = 0
        self._sim = None
        self._cluster = None
        self._total_gpus = 0
        # p95 is only recomputed after a placement lands in the waiting
        # histogram; between placements the cached value is exact
        self._wait_p95_cache = math.nan
        self._waits_dirty = True
        #: immutable dict swapped whole on fire/resolve transitions;
        #: the introspection server's /alerts endpoint reads it lock-free
        self._published: dict = self._publish()
        self._fired_counter = (
            registry.counter(
                "repro_alerts_fired_total",
                "SLO watchdog rule activations.",
                ("scheduler", "rule"),
            )
            if registry is not None
            else None
        )

    # ------------------------------------------------------------------
    def bind_simulation(self, sim) -> None:
        """Runner wiring: read cluster-derived signals directly."""
        self._sim = sim
        self._cluster = sim.cluster
        self._total_gpus = len(sim.topo.gpus())
        if not self.scheduler:
            self.scheduler = sim.scheduler.name
        self._published = self._publish()  # pick up the scheduler name

    # ------------------------------------------------------------------
    # signal derivation
    # ------------------------------------------------------------------
    def _registry_value(self, name: str, default: float = math.nan) -> float:
        if self.registry is None or name not in self.registry:
            return default
        instrument = self.registry.get(name)
        try:
            return instrument.value(scheduler=self.scheduler)
        except (AttributeError, ValueError):
            return default

    def _wait_p95(self) -> float:
        if not self._waits_dirty:
            return self._wait_p95_cache
        self._waits_dirty = False
        self._wait_p95_cache = math.nan
        if self.registry is None or "repro_job_waiting_seconds" not in self.registry:
            return math.nan
        hist = self.registry.get("repro_job_waiting_seconds")
        if not isinstance(hist, Histogram):
            return math.nan
        try:
            self._wait_p95_cache = hist.quantile(0.95, scheduler=self.scheduler)
        except ValueError:
            pass
        return self._wait_p95_cache

    def signals(
        self, queued: int, names: Collection[str] = SIGNALS
    ) -> dict[str, float]:
        """Rule-visible signals at the current round boundary: the
        ones in ``names`` (every signal by default)."""
        out: dict[str, float] = {}
        cluster = self._cluster
        if "queue_depth" in names:
            out["queue_depth"] = float(queued)
        if "queue_wait_p95" in names:
            out["queue_wait_p95"] = self._wait_p95()
        if "utilization" in names:
            if cluster is not None:
                total = self._total_gpus
                out["utilization"] = (
                    cluster.alloc.busy_count() / total if total else math.nan
                )
            else:
                out["utilization"] = self._registry_value(
                    "repro_gpu_utilization"
                )
        if "cache_hit_rate" in names:
            if cluster is not None:
                stats = cluster.engine.stats
                hits = stats.hits
                lookups = hits + stats.misses
                out["cache_hit_rate"] = hits / lookups if lookups else math.nan
            else:
                out["cache_hit_rate"] = self._registry_value(
                    "repro_placement_cache_hit_rate"
                )
        if "starved_rounds" in names:
            out["starved_rounds"] = float(self._starved_rounds)
        if "postponements_total" in names:
            out["postponements_total"] = float(self._postponements_total)
        if "requeues_total" in names:
            out["requeues_total"] = float(self._requeues)
        if "running_jobs" in names:
            out["running_jobs"] = (
                float(len(cluster.running))
                if cluster is not None
                else self._registry_value("repro_running_jobs", 0.0)
            )
        return out

    # ------------------------------------------------------------------
    # SimObserver hooks
    # ------------------------------------------------------------------
    def on_place(self, t, job, solution, solo_exec_time, postponements):
        self._waits_dirty = True
        if postponements:
            seen = self._postponements.get(job.job_id, 0)
            self._postponements_total += postponements - seen
            self._postponements[job.job_id] = postponements

    def on_finish(self, t, job, gpus):
        self._postponements.pop(job.job_id, None)

    def on_evict(self, t, job, gpus, reason):
        if reason == "cancel":
            self._postponements.pop(job.job_id, None)

    def on_requeue(self, t, job):
        self._requeues += 1

    def on_decision_round(self, t, placed, queued, elapsed_s):
        if queued > 0 and not placed:
            self._starved_rounds += 1
        else:
            self._starved_rounds = 0
        signals = self.signals(queued, self._needed)
        for rule, state, signal, op, threshold, instant in self._pairs:
            value = signals[signal]
            if instant:
                # Rule.evaluate of a one-sample ``last`` window, inline
                if value != value:  # NaN: no data this round
                    if rule.nan == "skip":
                        continue  # neither healthy nor violating
                    violated = True
                else:
                    violated = op(value, threshold)
            else:
                window = state.window
                window.append(value)
                value, action = rule.evaluate(window)
                if action == "skip":
                    continue  # no data: neither healthy nor violating
                violated = action == "violate" or op(value, threshold)
            if violated:
                state.violating_rounds += 1
                if not state.active and state.violating_rounds >= rule.for_rounds:
                    state.active = True
                    state.fired_count += 1
                    self._fire(rule, value, t)
            else:
                was_active = state.active
                state.violating_rounds = 0
                state.active = False
                if was_active:
                    self._resolve(rule, value, t)
        self._rounds += 1

    # ------------------------------------------------------------------
    # alert lifecycle
    # ------------------------------------------------------------------
    def _alert_doc(self, rule: Rule, value: float, t: float, state: str) -> dict:
        return {
            "rule": rule.name,
            "signal": rule.signal,
            "op": rule.op,
            "value": value if not math.isnan(value) else None,
            "threshold": rule.threshold,
            "severity": rule.severity,
            "state": state,
            "t": t,
            "round": self._rounds,
            "window": rule.window,
            "agg": rule.agg,
            "description": rule.description,
        }

    def _fire(self, rule: Rule, value: float, t: float) -> None:
        doc = self._alert_doc(rule, value, t, "firing")
        self.fired.append(doc)
        if self._fired_counter is not None:
            self._fired_counter.inc(scheduler=self.scheduler, rule=rule.name)
        self._record(doc)
        self._published = self._publish()

    def _resolve(self, rule: Rule, value: float, t: float) -> None:
        self._record(self._alert_doc(rule, value, t, "resolved"))
        self._published = self._publish()

    def _record(self, doc: dict) -> None:
        recorder = getattr(self._sim, "decision_recorder", None)
        if recorder is not None:
            recorder.alert(doc)

    # ------------------------------------------------------------------
    # read-side surfaces
    # ------------------------------------------------------------------
    def _publish(self) -> dict:
        # rebuilt only on fire/resolve transitions (rare), never on the
        # per-round hot path; rounds_evaluated is merged at read time
        return {
            "enabled": True,
            "scheduler": self.scheduler,
            "rules": [rule.name for rule in self.rules],
            "active": [
                name for name, st in self._state.items() if st.active
            ],
            "fired_total": len(self.fired),
            "fired": list(self.fired[-20:]),
        }

    def published_state(self) -> dict:
        """Latest atomically-swapped state (the /alerts endpoint body).

        ``rounds_evaluated`` is read live off the watchdog (a single
        int attribute read, atomic under the GIL); everything composite
        comes from the immutable published dict.
        """
        return {**self._published, "rounds_evaluated": self._rounds}

    def summary(self) -> list[dict]:
        """Every fired alert, in firing order (end-of-run digest)."""
        return list(self.fired)

    def finalize_result(self, result) -> None:
        """Runner wiring: attach the digest to the simulation result."""
        result.alerts = self.summary()
        self._published = self._publish()


# re-exported for rule files shipped next to configs
__all__ = [
    "AGGREGATES",
    "DEFAULT_RULES",
    "NAN_POLICIES",
    "Rule",
    "SIGNALS",
    "Watchdog",
    "load_rules",
]
