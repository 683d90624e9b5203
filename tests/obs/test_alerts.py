"""SLO watchdog: rule loading, deterministic firing, tap-only-ness."""

import json
import math

import pytest

from repro.analysis.scenarios import scenario1_jobs
from repro.obs import MetricsRegistry
from repro.obs.alerts import (
    DEFAULT_RULES,
    SIGNALS,
    Rule,
    Watchdog,
    load_rules,
)
from repro.obs.provenance import DecisionRecorder, records_of
from repro.obs.telemetry import TelemetryObserver
from repro.schedulers import make_scheduler
from repro.sim.runner import run_with_observers
from repro.topology.builders import cluster, power8_minsky
from repro.workload.job import Job, ModelType


def saturating_jobs(n: int = 12) -> list[Job]:
    """All jobs arrive at t=0 on a 4-GPU machine and each wants all of
    it: execution serialises and queue waits grow without bound."""
    return [
        Job(f"job{i}", ModelType.ALEXNET, 4, 4, arrival_time=0.0,
            iterations=4000)
        for i in range(n)
    ]


def run_watchdog(jobs, topo_factory, rules, scheduler="FCFS"):
    """Run with telemetry, the watchdog and a journaling recorder;
    returns the registry, the parsed journal, the watchdog and the
    result."""
    registry = MetricsRegistry()
    telemetry = TelemetryObserver(registry, scheduler=scheduler)
    watchdog = Watchdog(registry, rules, scheduler=scheduler)
    recorder = DecisionRecorder(journal=True)
    result = run_with_observers(
        topo_factory(),
        make_scheduler(scheduler),
        jobs,
        observers=(telemetry, watchdog, recorder),
    )
    records = [json.loads(line) for line in recorder.journal]
    return registry, records, watchdog, result


class TestRule:
    def test_rejects_unknown_signal(self):
        with pytest.raises(ValueError, match="unknown signal"):
            Rule("r", "no_such_signal", ">", 1.0)

    def test_rejects_unknown_operator(self):
        with pytest.raises(ValueError, match="unknown operator"):
            Rule("r", "queue_depth", "!=", 1.0)

    def test_rejects_nonpositive_for_rounds(self):
        with pytest.raises(ValueError, match="for_rounds"):
            Rule("r", "queue_depth", ">", 1.0, for_rounds=0)

    def test_nan_never_violates(self):
        rule = Rule("r", "queue_wait_p95", ">", 0.0)
        assert not rule.violated(math.nan)
        assert rule.violated(1.0)


class TestLoadRules:
    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({
            "rules": [
                {"name": "qw", "signal": "queue_wait_p95", "op": ">",
                 "threshold": 60.0, "for_rounds": 2, "severity": "critical"},
                {"name": "util", "signal": "utilization", "op": "<",
                 "threshold": 0.1},
            ]
        }))
        rules = load_rules(path)
        assert [r.name for r in rules] == ["qw", "util"]
        assert rules[0].for_rounds == 2
        assert rules[1].severity == "warning"

    def test_toml_round_trip(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "rules.toml"
        path.write_text(
            '[[rules]]\nname = "qw"\nsignal = "queue_depth"\n'
            'op = ">="\nthreshold = 5\n'
        )
        (rule,) = load_rules(path)
        assert rule.name == "qw" and rule.threshold == 5

    def test_rejects_bad_json(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="not JSON"):
            load_rules(path)

    def test_rejects_missing_rules_array(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="'rules' array"):
            load_rules(path)

    def test_rejects_unknown_fields(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"rules": [
            {"name": "x", "signal": "queue_depth", "op": ">",
             "threshold": 1, "surprise": True}
        ]}))
        with pytest.raises(ValueError, match="unknown fields"):
            load_rules(path)

    def test_rejects_empty_rules(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"rules": []}))
        with pytest.raises(ValueError, match="empty"):
            load_rules(path)


class TestWindowedRules:
    def test_rejects_bad_window_agg_nan(self):
        with pytest.raises(ValueError, match="window"):
            Rule("r", "queue_depth", ">", 1.0, window=0)
        with pytest.raises(ValueError, match="unknown agg"):
            Rule("r", "queue_depth", ">", 1.0, agg="median")
        with pytest.raises(ValueError, match="nan policy"):
            Rule("r", "queue_depth", ">", 1.0, nan="ignore")

    def test_window_aggregates(self):
        base = dict(window=4)
        mean = Rule("m", "queue_depth", ">", 0.0, agg="mean", **base)
        assert mean.evaluate([1.0, 2.0, 3.0]) == (2.0, "evaluate")
        high = Rule("h", "queue_depth", ">", 0.0, agg="max", **base)
        assert high.evaluate([1.0, 3.0, 2.0]) == (3.0, "evaluate")
        low = Rule("l", "queue_depth", ">", 0.0, agg="min", **base)
        assert low.evaluate([1.0, 3.0, 2.0]) == (1.0, "evaluate")
        last = Rule("i", "queue_depth", ">", 0.0, agg="last", **base)
        assert last.evaluate([1.0, 3.0, 2.0]) == (2.0, "evaluate")

    def test_rate_is_per_round_change_across_window(self):
        rule = Rule("r", "queue_depth", ">", 0.0, window=8, agg="rate")
        assert rule.evaluate([2.0, 4.0, 8.0]) == (3.0, "evaluate")
        value, action = rule.evaluate([5.0])
        assert action == "skip" and math.isnan(value)  # one point: no slope

    def test_nan_skip_excludes_samples_from_aggregates(self):
        rule = Rule("r", "queue_wait_p95", ">", 0.0, window=4, agg="mean")
        value, action = rule.evaluate([math.nan])
        assert action == "skip" and math.isnan(value)
        assert rule.evaluate([2.0, math.nan, 4.0]) == (3.0, "evaluate")
        # last-agg with a NaN current sample has no usable data either
        last = Rule("i", "queue_wait_p95", ">", 0.0, window=2)
        assert last.evaluate([2.0, math.nan])[1] == "skip"

    def test_nan_violate_pages_on_missing_sample(self):
        rule = Rule("r", "queue_wait_p95", ">", 1e9, window=4, agg="mean",
                    nan="violate")
        value, action = rule.evaluate([2.0, math.nan])
        assert action == "violate" and math.isnan(value)
        # finite samples fall through to the normal comparison
        assert rule.evaluate([2.0, 4.0]) == (3.0, "evaluate")

    def test_windowed_toml_round_trip(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "rules.toml"
        path.write_text(
            '[[rules]]\nname = "qd-growth"\nsignal = "queue_depth"\n'
            'op = ">"\nthreshold = 0.5\nwindow = 8\nagg = "rate"\n'
            'nan = "skip"\nfor_rounds = 3\n'
            '[[rules]]\nname = "cache-missing"\n'
            'signal = "cache_hit_rate"\nop = "<"\nthreshold = 0.01\n'
            'nan = "violate"\n'
        )
        growth, missing = load_rules(path)
        assert growth.window == 8 and growth.agg == "rate"
        assert growth.nan == "skip" and growth.for_rounds == 3
        assert missing.window == 1 and missing.agg == "last"
        assert missing.nan == "violate"
        # the loaded rule evaluates like a hand-built one
        assert growth.evaluate([0.0, 2.0, 4.0]) == (2.0, "evaluate")

    def test_json_rejects_bad_windowed_fields(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"rules": [
            {"name": "x", "signal": "queue_depth", "op": ">",
             "threshold": 1, "agg": "median"}
        ]}))
        with pytest.raises(ValueError, match="unknown agg"):
            load_rules(path)

    # ------------------------------------------------------------------
    # streak semantics driven round-by-round (no registry, no cluster:
    # every registry signal is NaN; queue_depth tracks the hook arg)
    # ------------------------------------------------------------------
    def drive(self, watchdog, depths):
        for i, depth in enumerate(depths):
            watchdog.on_decision_round(float(i), 1, depth, 0.0)

    def test_skip_leaves_streak_untouched(self):
        # utilization is NaN without a cluster or registry: a skip round
        # between violating rounds must not reset the maturing streak
        depth_rule = Rule("qd", "queue_depth", ">", 0.0, for_rounds=3)
        util_rule = Rule("u", "utilization", "<", 2.0, for_rounds=1)
        watchdog = Watchdog(None, (depth_rule, util_rule))
        self.drive(watchdog, [5, 5, 0, 5, 5])
        # qd: streak 2, reset by the healthy round, streak 2 -> no fire
        # u: every round NaN -> skipped, never fires, never resolves
        assert watchdog.fired == []
        state = watchdog.published_state()
        assert state["active"] == []

    def test_windowed_mean_rides_through_one_healthy_round(self):
        rule = Rule("qd", "queue_depth", ">", 2.0, window=3, agg="mean",
                    for_rounds=3)
        watchdog = Watchdog(None, (rule,))
        # means over the trailing 3: 9, 9, 6, 6, 6 -> all > 2, fires at
        # round 2 (rounds count from 0) even though round 2's
        # instantaneous depth was healthy
        self.drive(watchdog, [9, 9, 0, 9, 9])
        assert len(watchdog.fired) == 1
        assert watchdog.fired[0]["round"] == 2
        assert watchdog.fired[0]["window"] == 3
        assert watchdog.fired[0]["agg"] == "mean"

    def test_rate_rule_fires_on_sustained_growth(self):
        rule = Rule("growth", "queue_depth", ">", 0.5, window=4, agg="rate",
                    for_rounds=2)
        watchdog = Watchdog(None, (rule,))
        self.drive(watchdog, [0, 2, 4, 6, 8, 8, 8, 8, 8])
        assert len(watchdog.fired) == 1
        assert watchdog.fired[0]["value"] == 2.0  # +2 jobs per round
        # the plateau drops the rate to 0 -> the alert resolves
        assert watchdog.published_state()["active"] == []

    def test_nan_violate_fires_without_data(self):
        rule = Rule("dead-signal", "cache_hit_rate", "<", 0.01,
                    nan="violate", for_rounds=2)
        watchdog = Watchdog(None, (rule,))
        self.drive(watchdog, [1, 1])
        assert len(watchdog.fired) == 1
        assert watchdog.fired[0]["value"] is None  # NaN serialised as null
        json.dumps(watchdog.published_state())

    @pytest.mark.parametrize("nan", ["skip", "violate"])
    def test_instant_rules_fire_as_the_general_evaluation(self, nan):
        # window 1 + ``last`` takes the inline path; ``max`` over one
        # sample is the same rule through Rule.evaluate
        def rules(agg):
            return (
                Rule("qd", "queue_depth", ">", 3.0, for_rounds=2, agg=agg,
                     nan=nan),
                Rule("hr", "cache_hit_rate", "<", 0.5, for_rounds=3,
                     agg=agg, nan=nan),
            )

        depths = [0, 5, 5, 1, 7, 7, 7, 2, 2, 9]
        fast, general = Watchdog(None, rules("last")), Watchdog(None, rules("max"))
        self.drive(fast, depths)
        self.drive(general, depths)
        strip = lambda docs: [
            {k: v for k, v in d.items() if k != "agg"} for d in docs
        ]
        assert fast.fired and strip(fast.fired) == strip(general.fired)
        assert (fast.published_state()["active"]
                == general.published_state()["active"])

    @pytest.mark.parametrize("agg", ["mean", "max", "min", "rate"])
    @pytest.mark.parametrize("nan", ["skip", "violate"])
    def test_windowed_rules_fire_as_the_general_evaluation(self, agg, nan):
        # the watchdog counts each window's NaNs as samples enter and
        # leave it; Rule.evaluate over the same trailing window, NaN
        # probe included, must give the same alerts and values
        samples = [1.0, math.nan, 5.0, 6.0, math.nan, math.nan, math.nan,
                   2.0, 9.0, 9.0, math.nan, 0.0, 7.0, 8.0]
        rule = Rule("qw", "queue_wait_p95", ">", 4.0, window=3, agg=agg,
                    nan=nan)

        class Scripted(Watchdog):
            def signals(self, queued, names=SIGNALS):
                return {"queue_wait_p95": samples[self._rounds]}

        watchdog = Scripted(None, (rule,))
        state = watchdog._state["qw"]
        for i in range(len(samples)):
            watchdog.on_decision_round(float(i), 1, 0, 0.0)
            assert state.nans == sum(v != v for v in state.window)
        expected, active = [], False
        for i in range(len(samples)):
            value, action = rule.evaluate(samples[max(0, i - 2):i + 1])
            if action == "skip":
                continue
            violated = action == "violate" or value > rule.threshold
            if violated and not active:
                expected.append((i, None if math.isnan(value) else value))
            active = violated
        assert expected
        assert [(d["round"], d["value"]) for d in watchdog.fired] == expected

    def test_only_the_signals_rules_read_are_derived(self):
        watchdog = Watchdog(None, (Rule("qd", "queue_depth", ">", 1.0),))
        assert watchdog.signals(3, {"queue_depth"}) == {"queue_depth": 3.0}
        assert set(watchdog.signals(3)) == set(SIGNALS)

    def test_windowed_rule_fires_in_real_run(self):
        rule = Rule("qd-mean", "queue_depth", ">=", 4.0, window=5,
                    agg="mean", for_rounds=1)
        first = run_watchdog(saturating_jobs(), power8_minsky, (rule,))
        second = run_watchdog(saturating_jobs(), power8_minsky, (rule,))
        for *_, result in (first, second):
            assert len(result.alerts) == 1
            assert result.alerts[0]["agg"] == "mean"
        assert first[3].alerts[0]["round"] == second[3].alerts[0]["round"]


class TestWatchdogFiring:
    def test_fires_deterministically_on_saturated_queue(self):
        rule = Rule("qw-p95", "queue_wait_p95", ">", 120.0, for_rounds=1,
                    severity="critical")
        first = run_watchdog(saturating_jobs(), power8_minsky, (rule,))
        second = run_watchdog(saturating_jobs(), power8_minsky, (rule,))
        for registry, records, watchdog, result in (first, second):
            assert len(result.alerts) == 1, "edge-triggered: fires once"
            alert = result.alerts[0]
            assert alert["rule"] == "qw-p95"
            assert alert["state"] == "firing"
            assert alert["value"] > 120.0
            counter = registry.get("repro_alerts_fired_total")
            assert counter.value(scheduler="FCFS", rule="qw-p95") == 1
            (record,) = records_of("alert", records)
            assert record["rule"] == "qw-p95"
            assert record["severity"] == "critical"
        # sim-time signals: identical runs fire at the identical instant
        assert first[3].alerts[0]["t"] == second[3].alerts[0]["t"]
        assert first[3].alerts[0]["round"] == second[3].alerts[0]["round"]

    def test_for_rounds_suppresses_transients(self):
        # the queue is non-empty for many rounds, but an absurd
        # persistence requirement never lets the rule mature
        rule = Rule("qd", "queue_depth", ">", 0.0, for_rounds=10_000)
        *_, result = run_watchdog(saturating_jobs(), power8_minsky, (rule,))
        assert result.alerts == []

    def test_queue_depth_rule_fires_and_resolves(self):
        rule = Rule("qd", "queue_depth", ">=", 8.0, for_rounds=1)
        _, records, watchdog, result = run_watchdog(
            saturating_jobs(12), power8_minsky, (rule,)
        )
        assert len(result.alerts) == 1
        states = [r["state"] for r in records_of("alert", records)]
        # fired while 8+ jobs waited, resolved as the queue drained
        assert states == ["firing", "resolved"]
        assert watchdog.published_state()["active"] == []
        assert watchdog.published_state()["fired_total"] == 1

    def test_alert_round_matches_its_round_record(self):
        """An alert record carries the number of the round record it
        fired in (the next round record in the stream), and the
        watchdog's own digest shows the same number."""
        rule = Rule("qd", "queue_depth", ">=", 8.0, for_rounds=1)
        _, records, _, result = run_watchdog(
            saturating_jobs(12), power8_minsky, (rule,)
        )
        alerts = records_of("alert", records)
        assert [a["state"] for a in alerts] == ["firing", "resolved"]
        for alert in alerts:
            fired_in = next(
                r for r in records
                if r["kind"] == "round" and r["seq"] > alert["seq"]
            )
            assert alert["round"] == fired_in["round"]
            assert alert["t"] == fired_in["t"]
        assert result.alerts[0]["round"] == alerts[0]["round"]

    def test_default_rules_silent_on_scenario1(self):
        *_, result = run_watchdog(
            scenario1_jobs(100, seed=42),
            lambda: cluster(5),
            DEFAULT_RULES,
            scheduler="TOPO-AWARE-P",
        )
        assert result.alerts == []

    def test_duplicate_rule_names_rejected(self):
        rule = Rule("same", "queue_depth", ">", 1.0)
        with pytest.raises(ValueError, match="duplicate"):
            Watchdog(MetricsRegistry(), (rule, rule))

    def test_watchdog_does_not_change_results(self):
        jobs = scenario1_jobs(30, seed=42)
        rule = Rule("qd", "queue_depth", ">", 0.0, for_rounds=1)
        *_, with_dog = run_watchdog(jobs, lambda: cluster(2), (rule,),
                                    scheduler="TOPO-AWARE")
        bare = run_with_observers(
            cluster(2), make_scheduler("TOPO-AWARE"), jobs
        )
        assert [r.finished_at for r in with_dog.records] == [
            r.finished_at for r in bare.records
        ]
        assert with_dog.makespan == bare.makespan

    def test_alert_summary_attached_by_runner(self):
        rule = Rule("qd", "queue_depth", ">", 0.0, for_rounds=1)
        *_, watchdog, result = run_watchdog(
            saturating_jobs(6), power8_minsky, (rule,)
        )
        assert result.alerts == watchdog.summary()
        assert result.alerts  # the saturated queue fired it


class TestPublishedState:
    def test_published_state_shape(self):
        rule = Rule("qd", "queue_depth", ">", 0.0, for_rounds=1)
        *_, watchdog, _ = run_watchdog(saturating_jobs(6), power8_minsky,
                                       (rule,))
        doc = watchdog.published_state()
        assert doc["enabled"] is True
        assert doc["rules"] == ["qd"]
        assert doc["rounds_evaluated"] > 0
        json.dumps(doc)  # must be wire-serialisable as-is
