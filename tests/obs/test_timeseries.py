"""Tiered time-series store: downsampling boundaries, sampling through
the snapshot observer, endpoint documents."""

import json
import urllib.request

import pytest

from repro.analysis.scenarios import scenario1_jobs
from repro.obs import MetricsRegistry
from repro.obs.server import IntrospectionServer
from repro.obs.state import SnapshotObserver, SnapshotPublisher
from repro.obs.timeseries import (
    CLUSTER_SERIES,
    MACHINE_SERIES,
    TIMESERIES_SCHEMA_VERSION,
    TieredSeries,
    TimeSeriesStore,
)
from repro.schedulers import make_scheduler
from repro.sim.engine import Simulator
from repro.sim.runner import run_with_observers
from repro.topology.builders import cluster


class TestTieredSeries:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="capacity"):
            TieredSeries(capacity=0)
        with pytest.raises(ValueError, match="fanout"):
            TieredSeries(fanout=1)

    def test_raw_ring_caps_at_capacity(self):
        series = TieredSeries(capacity=16, fanout=10)
        for i in range(100):
            series.append(float(i), float(i))
        raw = series.points("raw")
        assert len(raw) == 16
        assert raw[0] == (84.0, 84.0)
        assert raw[-1] == (99.0, 99.0)
        assert series.latest == (99.0, 99.0)
        assert len(series) == 16

    def test_mid_tier_aggregates_exactly_at_fanout_boundary(self):
        series = TieredSeries(capacity=64, fanout=10)
        for i in range(9):
            series.append(float(i), float(i))
        assert series.points("mid") == []  # one short of the boundary
        series.append(9.0, 9.0)
        (point,) = series.points("mid")
        # (t of last sample, min, mean, max) over the 10-sample bucket
        assert point == (9.0, 0.0, 4.5, 9.0)

    def test_coarse_tier_aggregates_at_fanout_squared(self):
        series = TieredSeries(capacity=64, fanout=10)
        for i in range(99):
            series.append(float(i), float(i))
        assert series.points("coarse") == []  # one short of 100
        series.append(99.0, 99.0)
        (point,) = series.points("coarse")
        # min of mins, mean of means, max of maxes over ten mid points
        assert point == (99.0, 0.0, 49.5, 99.0)
        assert len(series.points("mid")) == 10

    def test_memory_stays_bounded_past_all_tiers(self):
        series = TieredSeries(capacity=4, fanout=10)
        for i in range(1000):
            series.append(float(i), float(i))
        # 1000 raw -> 100 mid -> 10 coarse, every ring capped at 4
        assert len(series.points("raw")) == 4
        assert len(series.points("mid")) == 4
        assert len(series.points("coarse")) == 4
        # the newest coarse point still covers the newest samples
        assert series.points("coarse")[-1][3] == 999.0

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="unknown tier"):
            TieredSeries().points("hourly")

    def test_to_dict_is_json_ready(self):
        series = TieredSeries(capacity=8, fanout=2)
        for i in range(5):
            series.append(float(i), float(i))
        doc = series.to_dict()
        assert set(doc) == {"raw", "mid", "coarse"}
        json.dumps(doc)  # lists of lists, wire-serialisable as-is
        assert doc["raw"][0] == [0.0, 0.0]
        assert doc["mid"] == [[1.0, 0.0, 0.5, 1.0], [3.0, 2.0, 2.5, 3.0]]


class TestTimeSeriesStore:
    def test_document_shape(self):
        store = TimeSeriesStore(capacity=32, fanout=4)
        store.record(1.0, "queue_depth", 3.0)
        store.record(1.0, "occupancy", 0.5, machine="m0")
        store.samples_taken = 1
        doc = store.document()
        assert doc["schema"] == TIMESERIES_SCHEMA_VERSION
        assert doc["enabled"] is True
        assert doc["capacity"] == 32 and doc["fanout"] == 4
        assert doc["samples"] == 1
        assert doc["tiers"] == ["raw", "mid", "coarse"]
        assert doc["cluster"]["queue_depth"]["raw"] == [[1.0, 3.0]]
        assert doc["machines"]["m0"]["occupancy"]["raw"] == [[1.0, 0.5]]
        json.dumps(doc)

    def test_cluster_document_serves_latest_per_machine(self):
        store = TimeSeriesStore()
        for t, occ in ((1.0, 0.25), (2.0, 0.75)):
            store.record(t, "occupancy", occ, machine="m1")
            store.record(t, "fragmentation", 0.1 * t, machine="m1")
        store.record(1.5, "occupancy", 1.0, machine="m0")
        doc = store.cluster_document()
        assert doc["t"] == 2.0  # newest stamp across every machine
        assert list(doc["machines"]) == ["m0", "m1"]  # sorted
        assert doc["machines"]["m1"]["occupancy"] == 0.75  # latest wins
        assert doc["machines"]["m1"]["fragmentation"] == pytest.approx(0.2)

    def test_machines_lists_only_machine_scoped_series(self):
        store = TimeSeriesStore()
        store.record(0.0, "queue_depth", 1.0)
        store.record(0.0, "occupancy", 0.5, machine="m3")
        store.record(0.0, "occupancy", 0.5, machine="m1")
        assert store.machines() == ["m1", "m3"]


class TestTimeSeriesSampler:
    """Time-series sampling: the snapshot observer samples its store
    at every publish."""

    def run(self, store, n_jobs=30, machines=3, scheduler="TOPO-AWARE",
            **kwargs):
        observer = SnapshotObserver(
            SnapshotPublisher(), timeseries=store, **kwargs
        )
        return run_with_observers(
            cluster(machines),
            make_scheduler(scheduler),
            scenario1_jobs(n_jobs, seed=42),
            observers=(observer,),
        )

    def test_records_cluster_and_machine_series(self):
        store = TimeSeriesStore()
        result = self.run(store, min_publish_interval_s=0.0)
        assert store.samples_taken > 1
        for name in CLUSTER_SERIES:
            series = store.get(name)
            assert series is not None and len(series) > 0, name
        machines = store.machines()
        assert len(machines) == 3
        for machine in machines:
            for name in MACHINE_SERIES:
                assert store.get(name, machine) is not None, (name, machine)
            occupancy = [v for _, v in store.get("occupancy", machine).points()]
            assert all(0.0 <= v <= 1.0 for v in occupancy)
        # the terminal sample always lands, stamped with the makespan
        assert store.get("queue_depth").latest[0] == result.makespan
        assert store.get("queue_depth").latest[1] == 0.0

    def test_timestamps_are_simulation_time_and_deterministic(self):
        first = TimeSeriesStore()
        second = TimeSeriesStore()
        self.run(first, min_publish_interval_s=0.0)
        self.run(second, min_publish_interval_s=0.0)
        assert first.document() == second.document()

    def test_wall_clock_throttle_consults_only_observer_clock(self):
        store = TimeSeriesStore()
        frozen = lambda: 100.0  # noqa: E731 - tiny fixed clock
        self.run(store, min_publish_interval_s=0.05, clock=frozen)
        # the bind-time publish samples, every round sits inside the
        # frozen 50 ms window; the terminal publish bypasses the
        # throttle -> exactly two samples
        assert store.samples_taken == 2

    def test_samples_follow_the_commit_gate(self):
        store = TimeSeriesStore()
        observer = SnapshotObserver(
            SnapshotPublisher(), clock=lambda: 0.0,
            min_publish_interval_s=0.0, timeseries=store,
        )
        sim = Simulator(
            cluster(2), make_scheduler("TOPO-AWARE"),
            scenario1_jobs(10, seed=42), observers=[observer],
        ).start()
        assert store.samples_taken == 1  # the bind-time publish
        observer.hold()
        while sim.step():
            pass
        assert store.samples_taken == 1  # nothing sampled while held
        assert observer.release() is True
        assert store.samples_taken == 2
        assert store.get("gpus_busy").latest == (
            sim.cluster.now, float(sim.cluster.alloc.busy_count())
        )
        assert observer.release() is False  # nothing came due since
        assert store.samples_taken == 2


class TestEndpoints:
    def fetch(self, url):
        with urllib.request.urlopen(url, timeout=5) as resp:
            assert resp.status == 200
            return json.load(resp)

    def test_timeseries_and_cluster_served(self):
        store = TimeSeriesStore()
        observer = SnapshotObserver(
            SnapshotPublisher(), min_publish_interval_s=0.0,
            timeseries=store,
        )
        run_with_observers(
            cluster(2),
            make_scheduler("TOPO-AWARE"),
            scenario1_jobs(10, seed=42),
            observers=(observer,),
        )
        server = IntrospectionServer(
            SnapshotPublisher(), MetricsRegistry(), timeseries=store
        ).start()
        try:
            doc = self.fetch(server.url + "/timeseries")
            assert doc["schema"] == TIMESERIES_SCHEMA_VERSION
            assert doc["samples"] == store.samples_taken
            assert set(CLUSTER_SERIES) <= set(doc["cluster"])
            assert len(doc["machines"]) == 2
            # downsampled tiers travel over the wire too
            assert set(doc["cluster"]["queue_depth"]) == {
                "raw", "mid", "coarse"
            }
            heat = self.fetch(server.url + "/cluster")
            assert heat["enabled"] is True
            for machine_doc in heat["machines"].values():
                assert set(MACHINE_SERIES) <= set(machine_doc)
        finally:
            server.stop()

    def test_endpoints_degrade_without_store(self):
        server = IntrospectionServer(
            SnapshotPublisher(), MetricsRegistry()
        ).start()
        try:
            assert self.fetch(server.url + "/timeseries")["enabled"] is False
            assert self.fetch(server.url + "/cluster")["enabled"] is False
        finally:
            server.stop()
