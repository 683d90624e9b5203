"""Fast-path equivalence: memoised engine vs memo-disabled engine, and
the top-k candidate prefilter vs the exhaustive host scan.

Extends the golden-equivalence pins (which compare the current engine
against committed seed outputs) with a direct A/B proof that the
placement memo, the capacity pruning and the prefilter change no
scheduling decision: a full scenario run must be
record-for-record identical (``==``, no tolerance) to one with
``memo_size=0`` or one on the :class:`ExhaustiveHostEngine` reference.
"""

from __future__ import annotations

import pytest

from repro.analysis.bench import (
    RECORD_FIELDS,
    check_equivalence,
    exhaustive_cluster,
)
from repro.analysis.scenarios import scenario1_jobs, scenario2_jobs, table1_jobs
from repro.schedulers import make_scheduler
from repro.sim.cluster import ClusterState
from repro.sim.engine import Simulator
from repro.topology.builders import (
    cluster,
    dgx1,
    power8_minsky,
    power8_pcie_k80,
)


def _run(topo_factory, jobs, scheduler_name, memo_size=None, *, exhaustive=False):
    topo = topo_factory()
    state = exhaustive_cluster(topo) if exhaustive else ClusterState(topo)
    if memo_size is not None:
        state.engine.memo_size = memo_size
    sim = Simulator(topo, make_scheduler(scheduler_name), list(jobs), cluster=state)
    return sim.run()


def _assert_identical(a, b):
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.job.job_id == rb.job.job_id
        for name in RECORD_FIELDS:
            assert getattr(ra, name) == getattr(rb, name), (
                ra.job.job_id,
                name,
            )


@pytest.mark.parametrize("scheduler_name", ["TOPO-AWARE", "TOPO-AWARE-P"])
def test_scenario1_memo_on_off_identical(scheduler_name):
    jobs = scenario1_jobs(100, seed=42)
    memo = _run(lambda: cluster(5), jobs, scheduler_name)
    cold = _run(lambda: cluster(5), jobs, scheduler_name, memo_size=0)
    _assert_identical(memo, cold)
    assert memo.makespan == cold.makespan
    assert memo.decision_rounds == cold.decision_rounds


@pytest.mark.parametrize("scheduler_name", ["FCFS", "BF", "TOPO-AWARE"])
def test_table1_memo_on_off_identical(scheduler_name):
    jobs = table1_jobs()
    memo = _run(power8_minsky, jobs, scheduler_name)
    cold = _run(power8_minsky, jobs, scheduler_name, memo_size=0)
    _assert_identical(memo, cold)


def _mixed_cluster():
    """Twelve machines alternating DGX-1 and PCIe K80 boxes."""
    return cluster(
        12,
        lambda mid: dgx1(mid) if int(mid[1:]) % 2 else power8_pcie_k80(mid),
    )


@pytest.mark.parametrize("scheduler_name", ["TOPO-AWARE", "TOPO-AWARE-P"])
@pytest.mark.parametrize(
    "memo,prefilter",
    [(True, True), (True, False), (False, True)],
)
def test_fig11_fastpath_matrix_identical(scheduler_name, memo, prefilter):
    """The placement memo and the top-k prefilter — alone or together —
    must reproduce the both-off run (exhaustive host scan, memo
    disabled) record-for-record at a scale where both actually engage
    (multi-machine fleet, contended rounds)."""
    jobs = scenario2_jobs(60, 12, seed=11)
    baseline = _run(
        lambda: cluster(12), jobs, scheduler_name, memo_size=0, exhaustive=True
    )
    fast = _run(
        lambda: cluster(12),
        jobs,
        scheduler_name,
        memo_size=None if memo else 0,
        exhaustive=not prefilter,
    )
    _assert_identical(baseline, fast)
    assert baseline.makespan == fast.makespan
    assert baseline.decision_rounds == fast.decision_rounds
    assert baseline.prefilter_stats["calls"] == 0
    # and each fast path ran exactly when enabled
    if prefilter:
        assert fast.prefilter_stats["pruned"] > 0
    else:
        assert fast.prefilter_stats["calls"] == 0
    lookups = fast.placement_stats["hits"] + fast.placement_stats["misses"]
    assert (lookups > 0) == memo


def test_mixed_fleet_prefilter_identical():
    """On a heterogeneous DGX-1/K80 fleet the prefilter must still
    reproduce the exhaustive host scan record-for-record."""
    jobs = scenario2_jobs(60, 12, seed=11)
    baseline = _run(_mixed_cluster, jobs, "TOPO-AWARE", exhaustive=True)
    fast = _run(_mixed_cluster, jobs, "TOPO-AWARE")
    _assert_identical(baseline, fast)
    assert baseline.makespan == fast.makespan
    assert baseline.decision_rounds == fast.decision_rounds
    assert fast.prefilter_stats["pruned"] > 0
    assert baseline.prefilter_stats["calls"] == 0


@pytest.mark.parametrize("scheduler_name", ["TOPO-AWARE", "TOPO-AWARE-P"])
def test_fully_instrumented_run_identical_to_bare(scheduler_name):
    """The whole observability stack is a tap: running with the
    introspection server live (SSE stream included), spans recorded
    into the decision recorder's journal, telemetry + watchdog
    (windowed rules included) + snapshot (sampling the time-series
    store) + decision-provenance observers attached, and
    a dashboard client polling ``/timeseries``/``/cluster``/``/state``
    over HTTP for the whole run, must reproduce the bare run's records
    bit-for-bit."""
    import json
    import tempfile
    import threading
    import urllib.request
    from pathlib import Path

    from repro.analysis.top import render_dashboard
    from repro.obs import MetricsRegistry
    from repro.obs.alerts import DEFAULT_RULES, Rule, Watchdog
    from repro.obs.provenance import DecisionRecorder, read_records
    from repro.obs.server import IntrospectionServer
    from repro.obs.state import SnapshotObserver, SnapshotPublisher
    from repro.obs.telemetry import TelemetryObserver
    from repro.obs.timeseries import TimeSeriesStore
    from repro.obs.trace import recording
    from repro.sim.runner import run_with_observers

    jobs = scenario1_jobs(60, seed=42)
    bare = run_with_observers(
        cluster(3), make_scheduler(scheduler_name), jobs
    )

    registry = MetricsRegistry()
    publisher = SnapshotPublisher()
    rules = DEFAULT_RULES + (
        Rule("qd-mean", "queue_depth", ">", 1e9, window=8, agg="mean"),
        Rule("qd-rate", "queue_depth", ">", 1e9, window=8, agg="rate"),
        Rule("hits", "cache_hit_rate", "<", -1.0, window=4, agg="min",
             nan="violate", for_rounds=10_000),
    )
    watchdog = Watchdog(registry, rules, scheduler=scheduler_name)
    recorder = DecisionRecorder(
        journal=True, registry=registry, scheduler=scheduler_name
    )
    store = TimeSeriesStore()
    # every round publishes, so every round also samples the store
    snapshots = SnapshotObserver(
        publisher, min_publish_interval_s=0.0, timeseries=store
    )
    observers = (
        TelemetryObserver(registry, scheduler=scheduler_name),
        watchdog,
        snapshots,
        recorder,
    )
    with IntrospectionServer(
        publisher, registry, watchdog, recorder=recorder, timeseries=store
    ) as server:
        stop_polling = threading.Event()
        frames = []

        def poll_dashboard():
            while not stop_polling.is_set():
                docs = {}
                for name in ("state", "cluster", "timeseries", "alerts"):
                    with urllib.request.urlopen(
                        f"{server.url}/{name}", timeout=5
                    ) as resp:
                        docs[name] = json.load(resp)
                frames.append(render_dashboard(docs, url=server.url))

        poller = threading.Thread(target=poll_dashboard, daemon=True)
        poller.start()
        try:
            # the recorder is also the span sink: spans land in its
            # journal next to the decisions they timed
            with recording(recorder):
                instrumented = run_with_observers(
                    cluster(3),
                    make_scheduler(scheduler_name),
                    jobs,
                    observers=observers,
                )
        finally:
            stop_polling.set()
            poller.join(10.0)

    _assert_identical(bare, instrumented)
    assert bare.makespan == instrumented.makespan
    assert bare.decision_rounds == instrumented.decision_rounds
    # and the instrumentation actually ran: snapshots were published
    # and the registry saw the whole job stream
    assert publisher.snapshot.finished
    assert registry.get("repro_jobs_finished_total").value(
        scheduler=scheduler_name
    ) == len(jobs)
    # the snapshot publishes filled per-machine history and the dashboard client
    # rendered live frames from the wire documents
    assert store.samples_taken > 0
    assert store.machines() and len(store.machines()) == 3
    assert store.get("occupancy", store.machines()[0]) is not None
    assert frames and any("repro top" in frame for frame in frames)
    # the quiet windowed rules never fired (absurd thresholds), and the
    # nan="violate" rule never matured (absurd for_rounds)
    assert instrumented.alerts == []
    # the recorder captured every placement and its journal round-trips
    assert recorder.counts()["recorded"] > 0
    assert registry.get("repro_decisions_recorded_total").value(
        scheduler=scheduler_name
    ) == recorder.counts()["recorded"]
    with tempfile.TemporaryDirectory() as tmp:
        journal_path = recorder.write_journal(Path(tmp) / "d.jsonl")
        records = read_records(journal_path)
        assert len(records) == len(recorder.journal)
    spans = [r for r in records if r["kind"] == "span"]
    assert any(s["name"] == "sched.propose" for s in spans)
    # span capture never costs a decision its ring slot
    assert recorder.counts()["dropped"] == 0


def test_check_equivalence_reports_identical():
    jobs = scenario1_jobs(30, seed=42)
    verdict = check_equivalence(jobs, 5)
    assert verdict["identical"] is True
    assert verdict["fastpath_off_identical"] is True
    assert verdict["recorder_identical"] is True
    assert verdict["scheduler"] == "TOPO-AWARE"
    assert set(verdict["memo_stats"]) == {
        "hits",
        "misses",
        "invalidations",
        "hit_rate",
    }
    assert verdict["decision_stats"]["recorded"] > 0
    assert verdict["decision_stats"]["dropped"] == 0
