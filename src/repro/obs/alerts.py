"""SLO watchdog: declarative alert rules over the live telemetry.

Production schedulers page operators on queue-wait and fragmentation
regressions instead of waiting for post-mortem log analysis.  The
:class:`Watchdog` is a :class:`~repro.sim.hooks.SimObserver` that
evaluates a set of :class:`Rule` objects at every decision-round
boundary — the cadence Algorithm 1 already wakes the scheduler on —
against *signals* that it reads, keeping no copy: ``queue_depth`` and
``starved_rounds`` from the round, ``utilization``, ``cache_hit_rate``
and ``running_jobs`` from the simulation ``Simulator.start`` binds it
to, and ``queue_wait_p95``, ``postponements_total`` and
``requeues_total`` from the families a
:class:`~repro.obs.telemetry.TelemetryObserver` keeps in the shared
:class:`~repro.obs.metrics.MetricsRegistry`.  Unbound, or without that
registry, those signals are NaN.

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
as a violation, for signals whose absence is itself the incident.  The
watchdog counts the NaN samples of each rule's window as they enter
and leave it, so a NaN-free window is aggregated without a NaN probe.

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

from repro.obs.metrics import MetricsRegistry
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
        if current != current and self.nan == "violate":
            return math.nan, "violate"
        agg = self.agg
        if agg == "last":
            if current != current:
                return math.nan, "skip"
            return current, "evaluate"
        # a NaN anywhere poisons sum(): one C-speed probe.  The
        # watchdog counts its windows' NaNs instead and evaluates a
        # NaN-free window inline, without the probe
        if math.isnan(sum(window_values)):
            window_values = [v for v in window_values if v == v]
            if not window_values:
                return math.nan, "skip"
        value = _AGGREGATE[agg](window_values)
        if value != value:  # rate needs two points
            return math.nan, "skip"
        return value, "evaluate"


def _rate(window) -> float:
    """Per-round change across the window (NaN below two points)."""
    n = len(window)
    return (window[-1] - window[0]) / (n - 1) if n > 1 else math.nan


#: window aggregates over NaN-free samples
_AGGREGATE = {
    "last": lambda window: window[-1],
    "mean": lambda window: sum(window) / len(window),
    "max": max,
    "min": min,
    "rate": _rate,
}


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

    __slots__ = ("violating_rounds", "active", "fired_count", "window", "nans")

    def __init__(self, rule: Rule) -> None:
        self.violating_rounds = 0
        self.active = False
        self.fired_count = 0
        #: trailing signal samples the rule's aggregate sees
        self.window: deque = deque(maxlen=rule.window)
        #: NaN samples in ``window``, kept on append and eviction so a
        #: NaN-free window needs no probe
        self.nans = 0


class Watchdog(BaseObserver):
    """Evaluate SLO rules at decision-round boundaries.

    Shares the :class:`MetricsRegistry` with the
    :class:`~repro.obs.telemetry.TelemetryObserver`, whose counters it
    reads (the waiting histogram and the postponement counter only on
    the first round after a placement: nothing else moves them).
    Every firing and resolution is
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
        # each rule carries its state, comparison and aggregate
        # pre-resolved; an instantaneous rule (window 1, ``last``) has
        # no aggregate and skips the window deque
        self._pairs = tuple(
            (
                rule,
                self._state[rule.name],
                rule.signal,
                _OPS[rule.op],
                rule.threshold,
                None if rule.window == 1 and rule.agg == "last"
                else _AGGREGATE[rule.agg],
            )
            for rule in self.rules
        )
        #: only the signals some rule reads are derived per round
        self._needed = frozenset(rule.signal for rule in self.rules)
        self._rounds = 0
        self._starved_rounds = 0
        self._sim = None
        self._cluster = None
        self._total_gpus = 0
        # the waiting histogram and the postponement counter move only
        # when a placement lands: both are re-read on the first round
        # after an on_place, and served from this cache otherwise
        self._wait_p95_cache = math.nan
        self._postponements_cache = math.nan
        self._placed_since_read = True
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
        """Read the cluster signals off ``sim`` (``Simulator.start``)."""
        self._sim = sim
        self._cluster = sim.cluster
        self._total_gpus = len(sim.topo.gpus())
        if not self.scheduler:
            self.scheduler = sim.scheduler.name
        self._published = self._publish()  # pick up the scheduler name

    # ------------------------------------------------------------------
    # signal derivation
    # ------------------------------------------------------------------
    def _counter(self, name: str) -> float:
        """This scheduler's series of a shared-registry counter; NaN
        without a registry or a telemetry observer feeding it."""
        registry = self.registry
        if registry is None or name not in registry:
            return math.nan
        return registry.get(name).value(scheduler=self.scheduler)

    def _read_after_place(self) -> None:
        self._placed_since_read = False
        self._postponements_cache = self._counter(
            "repro_job_postponements_total"
        )
        registry = self.registry
        self._wait_p95_cache = (
            registry.get("repro_job_waiting_seconds").quantile(
                0.95, scheduler=self.scheduler
            )
            if registry is not None and "repro_job_waiting_seconds" in registry
            else math.nan
        )

    def signals(
        self, queued: int, names: Collection[str] = SIGNALS
    ) -> dict[str, float]:
        """Rule-visible signals at the current round boundary: the
        ones in ``names`` (every signal by default)."""
        out: dict[str, float] = {}
        if self._placed_since_read and (
            "queue_wait_p95" in names or "postponements_total" in names
        ):
            self._read_after_place()
        if "queue_depth" in names:
            out["queue_depth"] = float(queued)
        if "queue_wait_p95" in names:
            out["queue_wait_p95"] = self._wait_p95_cache
        if "starved_rounds" in names:
            out["starved_rounds"] = float(self._starved_rounds)
        if "postponements_total" in names:
            out["postponements_total"] = self._postponements_cache
        if "requeues_total" in names:
            out["requeues_total"] = self._counter("repro_jobs_requeued_total")
        cluster = self._cluster
        if cluster is None:  # unbound: the cluster signals have no value
            for name in ("utilization", "cache_hit_rate", "running_jobs"):
                if name in names:
                    out[name] = math.nan
            return out
        if "utilization" in names:
            out["utilization"] = cluster.alloc.busy_count() / self._total_gpus
        if "cache_hit_rate" in names:
            stats = cluster.engine.stats
            lookups = stats.hits + stats.misses
            out["cache_hit_rate"] = stats.hits / lookups if lookups else math.nan
        if "running_jobs" in names:
            out["running_jobs"] = float(len(cluster.running))
        return out

    # ------------------------------------------------------------------
    # SimObserver hooks
    # ------------------------------------------------------------------
    def on_place(self, t, job, solution, solo_exec_time, postponements):
        self._placed_since_read = True

    def on_decision_round(self, t, placed, queued, elapsed_s):
        if queued > 0 and not placed:
            self._starved_rounds += 1
        else:
            self._starved_rounds = 0
        signals = self.signals(queued, self._needed)
        for rule, state, signal, op, threshold, aggregate in self._pairs:
            value = signals[signal]
            if aggregate is None:
                # Rule.evaluate of a one-sample ``last`` window, inline
                if value != value:  # NaN: no data this round
                    if rule.nan == "skip":
                        continue  # neither healthy nor violating
                    violated = True
                else:
                    violated = op(value, threshold)
            else:
                window = state.window
                if len(window) == window.maxlen and window[0] != window[0]:
                    state.nans -= 1  # a NaN leaves the window
                window.append(value)
                if value != value:
                    state.nans += 1
                if state.nans:
                    value, action = rule.evaluate(window)
                    if action == "skip":
                        continue  # no data: neither healthy nor violating
                    violated = action == "violate" or op(value, threshold)
                else:
                    # Rule.evaluate of a NaN-free window, inline
                    value = aggregate(window)
                    if value != value:
                        continue  # rate below two points: no data
                    violated = op(value, threshold)
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
