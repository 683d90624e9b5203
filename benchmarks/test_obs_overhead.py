"""Telemetry overhead: disabled trace points must stay within 3 %.

The ISSUE's acceptance bound: with no recorder installed, every
``span()`` call in the DRB/FM/utility hot path is a module-global read
plus an ``is None`` test, so a full Scenario 1 run (100 jobs) must
cost at most 3 % more than it would without any instrumentation.

Timing two full runs against each other is flaky on shared CI boxes,
so the 3 % assertion is built from deterministic parts instead: count
how many trace points the run actually crosses (via an enabled
recorder), microbenchmark the disabled ``span()`` call, and require

    span_count * disabled_cost_per_call  <  3 % of the run's wall time.

The same decomposition pins the live operational layer (SLO watchdog +
snapshot publisher, evaluated once per decision round while the
introspection server is up):

    rounds * (watchdog_round_cost + snapshot_round_cost)
        <  3 % of the run's wall time.

The enabled-vs-disabled wall-clock comparison is still reported in the
results file for the curious, just not asserted on.
"""

import time
import timeit

from repro.analysis.scenarios import scenario1_jobs
from repro.obs import recording, span
from repro.schedulers import make_scheduler
from repro.sim.engine import Simulator
from repro.topology.builders import cluster


def _run_scenario1():
    jobs = scenario1_jobs(100, seed=42)
    return Simulator(cluster(5), make_scheduler("TOPO-AWARE-P"), jobs).run()


def _floor(fn, calls: int) -> float:
    """Per-call cost floor: best of three timeit batches.

    A single batch is at the mercy of whatever else the box is doing
    for those few milliseconds; the minimum over repeats is the
    standard noise-resistant estimator for a deterministic call (any
    excess over the floor is scheduler interference, not the code).
    """
    return min(timeit.repeat(fn, number=calls, repeat=3)) / calls


def _timed_floor(fn, repeat: int = 2):
    """Wall-time floor of a full run: best of ``repeat`` timed calls
    (same rationale as :func:`_floor` — the denominator of the 3 %
    bound should not depend on one lucky or unlucky slice of the box).
    Returns ``(last_result, best_seconds)``."""
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def test_disabled_tracing_overhead_under_3pct(benchmark, write_result):
    # wall time of the production configuration (tracing disabled)
    benchmark.pedantic(_run_scenario1, rounds=1, iterations=1)
    _, disabled_s = _timed_floor(_run_scenario1)

    # the same run with a recorder installed, to count trace points
    t0 = time.perf_counter()
    with recording() as rec:
        _run_scenario1()
    enabled_s = time.perf_counter() - t0
    span_count = len(rec.spans)
    assert span_count > 0, "instrumentation never fired"

    # cost of one disabled span() call, measured in isolation
    calls = 100_000
    per_call_s = _floor(
        lambda: span("bench.noop", job_id="x", n=4), calls
    )

    worst_case_s = span_count * per_call_s
    overhead_pct = 100.0 * worst_case_s / disabled_s

    write_result(
        "obs_overhead",
        "\n".join(
            [
                "telemetry overhead, Scenario 1 (100 jobs, 5 machines)",
                f"disabled run wall time        {disabled_s:>9.3f} s",
                f"enabled run wall time         {enabled_s:>9.3f} s",
                f"trace points crossed          {span_count:>9d}",
                f"disabled span() cost          {per_call_s * 1e9:>9.1f} ns",
                f"worst-case disabled overhead  {overhead_pct:>9.4f} %"
                "  (bound: 3 %)",
            ]
        ),
    )

    assert worst_case_s < 0.03 * disabled_s


def test_server_and_watchdog_overhead_under_3pct(benchmark, write_result):
    """Watchdog + snapshot work happens once per decision round; the
    server itself only reads atomically-swapped objects off-thread.
    Pin: rounds x per-round observer cost < 3 % of the bare wall time.
    """
    from repro.obs import MetricsRegistry
    from repro.obs.alerts import DEFAULT_RULES, Watchdog
    from repro.obs.server import IntrospectionServer
    from repro.obs.state import SnapshotObserver, SnapshotPublisher
    from repro.obs.telemetry import TelemetryObserver
    from repro.sim.runner import run_with_observers

    def bare():
        return run_with_observers(
            cluster(5), make_scheduler("TOPO-AWARE-P"),
            scenario1_jobs(100, seed=42),
        )

    benchmark.pedantic(bare, rounds=1, iterations=1)
    result, bare_s = _timed_floor(bare)
    rounds = result.decision_rounds

    # one fully instrumented run: provides warmed observers for the
    # microbenchmarks and the reported (not asserted) wall-clock delta
    registry = MetricsRegistry()
    publisher = SnapshotPublisher()
    watchdog = Watchdog(registry, DEFAULT_RULES, scheduler="TOPO-AWARE-P")
    telemetry = TelemetryObserver(registry, scheduler="TOPO-AWARE-P")
    snapshots = SnapshotObserver(publisher)
    with IntrospectionServer(publisher, registry, watchdog):
        t0 = time.perf_counter()
        run_with_observers(
            cluster(5), make_scheduler("TOPO-AWARE-P"),
            scenario1_jobs(100, seed=42),
            observers=(telemetry, watchdog, snapshots),
        )
        instrumented_s = time.perf_counter() - t0

    # per-round cost of each observer, measured in isolation on the
    # bound (post-run, fully populated) instances.  Snapshot rebuilds
    # are wall-clock throttled (>= 50 ms apart), so their total is
    # bounded by elapsed time, not by the round count: account the
    # cheap per-round throttle check per round plus one full build per
    # interval.
    calls = 2_000
    watchdog_round_s = _floor(
        lambda: watchdog.on_decision_round(0.0, [], 3, 0.001), calls
    )
    snapshot_round_s = _floor(
        lambda: snapshots.on_decision_round(0.0, [], 3, 0.001), calls
    )
    snapshot_build_s = _floor(snapshots._publish, calls)
    rebuilds = bare_s / snapshots.min_publish_interval_s + 2

    worst_case_s = (
        rounds * (watchdog_round_s + snapshot_round_s)
        + rebuilds * snapshot_build_s
    )
    overhead_pct = 100.0 * worst_case_s / bare_s

    write_result(
        "obs_server_watchdog_overhead",
        "\n".join(
            [
                "server+watchdog overhead, Scenario 1 (100 jobs, 5 machines)",
                f"bare run wall time            {bare_s:>9.3f} s",
                f"instrumented run wall time    {instrumented_s:>9.3f} s",
                f"decision rounds               {rounds:>9d}",
                f"watchdog cost per round       {watchdog_round_s * 1e6:>9.1f} us",
                f"snapshot check per round      {snapshot_round_s * 1e6:>9.1f} us",
                f"snapshot full rebuild         {snapshot_build_s * 1e6:>9.1f} us"
                f"  (x{rebuilds:.0f} wall-clock-throttled)",
                f"worst-case observer overhead  {overhead_pct:>9.4f} %"
                "  (bound: 3 %)",
            ]
        ),
    )

    assert worst_case_s < 0.03 * bare_s


def test_sampler_and_windowed_watchdog_overhead_under_3pct(
    benchmark, write_result
):
    """Continuous telemetry, same decomposition: the time-series store
    is sampled at each snapshot publish, which is wall-clock throttled
    (one per ``min_publish_interval_s`` at most); the windowed watchdog
    adds a deque append + small-window aggregate per rule per round.
    Pin:

        publishes x per_sample_cost
            + rounds x (windowed_round_cost + snapshot_throttle_check)
            < 3 % of the bare wall time.

    The snapshot rebuild itself is priced by the server pin above.

    Priced on the fleet-scale workload (Scenario 2, 24 machines — the
    same family of contended rounds the fast-path matrix uses) because that is
    where continuous telemetry runs: a windowed rule costs ~1 us per
    round regardless of fleet size, so the pin must hold where rounds
    carry real scheduling work, not on a 5-machine toy whose rounds
    are two orders of magnitude cheaper than production's.
    """
    from repro.analysis.scenarios import scenario2_jobs
    from repro.obs import MetricsRegistry
    from repro.obs.alerts import DEFAULT_RULES, Rule, Watchdog
    from repro.obs.state import SnapshotObserver, SnapshotPublisher
    from repro.obs.telemetry import TelemetryObserver
    from repro.obs.timeseries import TimeSeriesStore
    from repro.sim.runner import run_with_observers

    def bare():
        return run_with_observers(
            cluster(24), make_scheduler("TOPO-AWARE-P"),
            scenario2_jobs(120, 24, seed=11),
        )

    benchmark.pedantic(bare, rounds=1, iterations=1)
    result, bare_s = _timed_floor(bare)
    rounds = result.decision_rounds

    # the production composition: the instantaneous default SLOs plus
    # windowed trend rules (mean / rate / min over trailing windows) —
    # the same mix the equivalence test and the serve/soak wiring use
    windowed = DEFAULT_RULES + (
        Rule("qd-mean", "queue_depth", ">", 1e9, window=16, agg="mean"),
        Rule("qd-rate", "queue_depth", ">", 1e9, window=16, agg="rate"),
        Rule("util-min", "utilization", "<", -1.0, window=16, agg="min"),
    )
    registry = MetricsRegistry()
    watchdog = Watchdog(registry, windowed, scheduler="TOPO-AWARE-P")
    telemetry = TelemetryObserver(registry, scheduler="TOPO-AWARE-P")
    store = TimeSeriesStore()
    # production 50 ms throttle
    snapshots = SnapshotObserver(SnapshotPublisher(), timeseries=store)
    t0 = time.perf_counter()
    run_with_observers(
        cluster(24), make_scheduler("TOPO-AWARE-P"),
        scenario2_jobs(120, 24, seed=11),
        observers=(telemetry, watchdog, snapshots),
    )
    instrumented_s = time.perf_counter() - t0
    samples = store.samples_taken
    assert samples > 0, "store never sampled"

    # per-call costs on the warmed, fully populated instances
    calls = 2_000
    windowed_round_s = _floor(
        lambda: watchdog.on_decision_round(0.0, [], 3, 0.001), calls
    )
    throttle_s = _floor(
        lambda: snapshots.on_decision_round(0.0, [], 3, 0.001), calls
    )
    bound = snapshots._sim.cluster
    sample_s = _floor(lambda: store.sample(bound, 0.0, 3), calls)
    # like snapshot rebuilds: samples are wall-clock bounded (one per
    # 50 ms interval, +2 for the bind-time and terminal publishes);
    # the cheap throttle check runs every round
    max_samples = bare_s / snapshots.min_publish_interval_s + 2

    worst_case_s = (
        rounds * (windowed_round_s + throttle_s) + max_samples * sample_s
    )
    overhead_pct = 100.0 * worst_case_s / bare_s

    write_result(
        "obs_sampler_windowed_watchdog_overhead",
        "\n".join(
            [
                "sampler+windowed-watchdog overhead, Scenario 2 "
                "(120 jobs, 24 machines)",
                f"bare run wall time            {bare_s:>9.3f} s",
                f"instrumented run wall time    {instrumented_s:>9.3f} s",
                f"decision rounds               {rounds:>9d}",
                f"samples taken                 {samples:>9d}",
                f"windowed watchdog per round   {windowed_round_s * 1e6:>9.1f} us",
                f"snapshot throttle per round   {throttle_s * 1e6:>9.1f} us",
                f"full sample cost              {sample_s * 1e6:>9.1f} us"
                f"  (x{max_samples:.0f} wall-clock-throttled)",
                f"worst-case overhead           {overhead_pct:>9.4f} %"
                "  (bound: 3 %)",
            ]
        ),
    )

    assert worst_case_s < 0.03 * bare_s


def test_decision_recorder_overhead_under_3pct(benchmark, write_result):
    """The provenance recorder's cost, decomposed the same way: count
    what a real recorded run appends (decision records, job/round
    events) and multiply by microbenched per-call costs.  Bound: < 3 %
    of the bare wall time.

    The ``n_hits x filter_hosts`` term is a conservative upper bound:
    a memo hit hands out the pool report its memo entry stored, and
    filters hosts read-only only on the first hit of an entry whose
    miss ran without provenance, which a recorded run never has.
    """
    from repro.core.constraints import filter_hosts
    from repro.obs.provenance import DecisionRecorder
    from repro.sim.cluster import ClusterState
    from repro.sim.runner import run_with_observers

    def bare():
        return run_with_observers(
            cluster(5), make_scheduler("TOPO-AWARE-P"),
            scenario1_jobs(100, seed=42),
        )

    benchmark.pedantic(bare, rounds=1, iterations=1)
    bare_result, bare_s = _timed_floor(bare)

    recorder = DecisionRecorder(journal=True)
    t0 = time.perf_counter()
    recorded_result = run_with_observers(
        cluster(5), make_scheduler("TOPO-AWARE-P"),
        scenario1_jobs(100, seed=42),
        observers=(recorder,),
    )
    recorded_s = time.perf_counter() - t0
    n_decisions = recorder.counts()["recorded"]
    n_other = recorder.last_seq - n_decisions
    n_hits = recorded_result.placement_stats.get("hits", 0)
    assert n_decisions > 0, "recorder never fired"

    # representative per-call costs, measured in isolation on a scratch
    # recorder.  A placed verdict is the most expensive decision kind
    # (utility breakdown + the largest JSON line), so pricing every
    # decision at it is conservative.
    topo = cluster(5)
    state = ClusterState(topo)
    job = scenario1_jobs(1, seed=42)[0]
    prov: dict = {}
    solution = state.engine.propose(job, None, provenance=prov)
    assert solution is not None
    slo = {
        "min_utility": job.min_utility,
        "utility": solution.utility,
        "utility_ok": True,
        "requires_p2p": job.requires_p2p,
        "solution_p2p": solution.p2p,
        "p2p_ok": True,
        "failed": None,
        "override": None,
    }
    scratch = DecisionRecorder(journal=True)
    calls = 2_000
    per_decision_s = _floor(
        lambda: scratch.decision(
            t=0.0,
            scheduler="TOPO-AWARE-P",
            job=job,
            queued=3,
            verdict="placed",
            solution=solution,
            engine=state.engine,
            propose=prov,
            slo=slo,
        ),
        calls,
    )
    per_event_s = _floor(
        lambda: scratch.on_place(0.0, job, solution, 1.0, 0), calls
    )
    # upper bound: at most one read-only filter_hosts per memo hit
    # (the fallback report of an entry solved without provenance)
    per_filter_s = _floor(
        lambda: filter_hosts(topo, state.alloc, job, report={}), calls
    )

    worst_case_s = (
        n_decisions * per_decision_s
        + n_other * per_event_s
        + n_hits * per_filter_s
    )
    overhead_pct = 100.0 * worst_case_s / bare_s

    write_result(
        "obs_decision_recorder_overhead",
        "\n".join(
            [
                "decision-recorder overhead, Scenario 1 (100 jobs, 5 machines)",
                f"bare run wall time            {bare_s:>9.3f} s",
                f"recorded run wall time        {recorded_s:>9.3f} s",
                f"decision records              {n_decisions:>9d}",
                f"job/round records             {n_other:>9d}",
                f"memo hits (report bound)      {n_hits:>9d}",
                f"decision record cost          {per_decision_s * 1e6:>9.1f} us",
                f"job/round record cost         {per_event_s * 1e6:>9.1f} us",
                f"filter_hosts cost (bound)     {per_filter_s * 1e6:>9.1f} us",
                f"worst-case recorder overhead  {overhead_pct:>9.4f} %"
                "  (bound: 3 %)",
            ]
        ),
    )

    # sanity: attaching the recorder is a tap (same rounds, makespan)
    assert recorded_result.makespan == bare_result.makespan
    assert recorded_result.decision_rounds == bare_result.decision_rounds
    assert worst_case_s < 0.03 * bare_s
