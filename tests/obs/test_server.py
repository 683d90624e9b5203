"""Introspection server: endpoint bodies, HTTP plumbing, run wiring."""

import json
import math
import urllib.error
import urllib.request

import pytest

from repro.analysis.scenarios import table1_jobs
from repro.obs import MetricsRegistry
from repro.obs.alerts import Rule, Watchdog
from repro.obs.server import IntrospectionServer
from repro.obs.state import (
    RunSnapshot,
    STATE_SCHEMA_VERSION,
    SnapshotObserver,
    SnapshotPublisher,
)
from repro.obs.telemetry import TelemetryObserver
from repro.schedulers import make_scheduler
from repro.sim.runner import run_with_observers
from repro.topology.builders import power8_minsky


def fetch(url):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.headers.get("Content-Type", ""), resp.read()


@pytest.fixture()
def full_stack():
    """Run table 1 with every observability piece attached and serving."""
    registry = MetricsRegistry()
    publisher = SnapshotPublisher()
    telemetry = TelemetryObserver(registry, scheduler="TOPO-AWARE")
    watchdog = Watchdog(
        registry, (Rule("qd", "queue_depth", ">=", 0.0),),
        scheduler="TOPO-AWARE",
    )
    snapshots = SnapshotObserver(publisher, clock=lambda: 1000.0)
    with IntrospectionServer(publisher, registry, watchdog) as server:
        result = run_with_observers(
            power8_minsky(),
            make_scheduler("TOPO-AWARE"),
            table1_jobs(),
            observers=(telemetry, watchdog, snapshots),
        )
        yield server, result


class TestHTTP:
    def test_all_endpoints_over_http(self, full_stack):
        server, result = full_stack
        status, ctype, body = fetch(server.url + "/metrics")
        assert status == 200 and ctype.startswith("text/plain")
        assert b"repro_jobs_finished_total" in body

        status, ctype, body = fetch(server.url + "/healthz")
        assert status == 200 and ctype == "application/json"
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["phase"] == "finished"
        assert health["uptime_s"] >= 0.0

        status, _, body = fetch(server.url + "/state")
        state = json.loads(body)
        assert state["schema"] == STATE_SCHEMA_VERSION
        assert state["finished"] is True
        assert state["makespan"] == pytest.approx(result.makespan)
        assert state["total_gpus"] == 4
        assert sum(state["free_gpus_by_machine"].values()) == 4

        status, _, body = fetch(server.url + "/alerts")
        alerts = json.loads(body)
        assert alerts["enabled"] is True
        assert alerts["rules"] == ["qd"]
        assert alerts["fired_total"] == 1  # >= 0 fires on round one

    def test_unknown_route_is_json_404(self, full_stack):
        server, _ = full_stack
        with pytest.raises(urllib.error.HTTPError) as err:
            fetch(server.url + "/nope")
        assert err.value.code == 404
        assert json.loads(err.value.read())["error"] == "no route /nope"

    def test_query_strings_are_ignored(self, full_stack):
        server, _ = full_stack
        status, _, body = fetch(server.url + "/healthz?probe=1")
        assert status == 200 and json.loads(body)["status"] == "ok"

    def test_port_zero_binds_a_free_port(self):
        publisher = SnapshotPublisher()
        with IntrospectionServer(publisher) as server:
            assert server.port > 0
            assert server.url == f"http://127.0.0.1:{server.port}"


class TestRenderBodies:
    def test_idle_server_reports_idle(self):
        server = IntrospectionServer(SnapshotPublisher())
        body, code = server.render_health()
        assert code == 200
        doc = json.loads(body)
        assert doc["phase"] == "idle"
        assert doc["last_event_age_s"] is None
        assert json.loads(server.render_state()) == {
            "phase": "idle", "snapshot": None,
        }

    def test_no_registry_no_watchdog_bodies(self):
        server = IntrospectionServer(SnapshotPublisher())
        assert server.render_metrics().startswith("# no metrics registry")
        assert json.loads(server.render_alerts()) == {
            "enabled": False, "active": [], "fired": [],
        }

    def test_health_age_tracks_snapshot_wall_time(self):
        publisher = SnapshotPublisher()
        publisher.publish(RunSnapshot(wall_time=0.0, events_seen=7))
        server = IntrospectionServer(publisher)
        doc = json.loads(server.render_health()[0])
        assert doc["phase"] == "running"
        assert doc["events_seen"] == 7
        assert doc["last_event_age_s"] > 0.0


class TestSnapshotObserver:
    def test_mid_run_snapshots_progress(self):
        publisher = SnapshotPublisher()
        seen: list[RunSnapshot] = []

        class Spy(SnapshotObserver):
            def on_decision_round(self, t, placed, queued, elapsed_s):
                super().on_decision_round(t, placed, queued, elapsed_s)
                seen.append(self.publisher.snapshot)

        run_with_observers(
            power8_minsky(),
            make_scheduler("TOPO-AWARE"),
            table1_jobs(),
            observers=(
                Spy(publisher, clock=lambda: 0.0, min_publish_interval_s=0.0),
            ),
        )
        assert seen  # republished at every round boundary
        rounds = [s.decision_rounds for s in seen]
        assert rounds == sorted(rounds)
        assert any(s.running_jobs for s in seen)
        assert all(not s.finished for s in seen)
        final = publisher.snapshot
        assert final.finished and final.makespan > 0.0
        assert final.allocation_epoch > 0
        assert final.queue_depth == 0

    def test_rebuilds_throttled_by_wall_clock(self):
        ticks = iter(x * 0.01 for x in range(10_000))  # 10 ms per read
        observer = SnapshotObserver(
            SnapshotPublisher(), clock=lambda: next(ticks),
            min_publish_interval_s=0.05,
        )
        run_with_observers(
            power8_minsky(), make_scheduler("TOPO-AWARE"), table1_jobs(),
            observers=(observer,),
        )
        final = observer.publisher.snapshot
        assert final.finished  # finalize always publishes...
        # ...but intermediate rounds were decimated: far fewer clock
        # reads than rounds x (throttle check + build) would need
        assert final.decision_rounds > 5
        reads = round(final.wall_time / 0.01)
        assert reads < final.decision_rounds * 2 + 20

    def test_snapshot_json_serialisable(self):
        publisher = SnapshotPublisher()
        run_with_observers(
            power8_minsky(),
            make_scheduler("TOPO-AWARE"),
            table1_jobs(),
            observers=(SnapshotObserver(publisher),),
        )
        doc = publisher.snapshot.to_dict()
        text = json.dumps(doc)
        assert json.loads(text)["scheduler"] == "TOPO-AWARE"
        cache = doc["placement_cache"]
        assert {"hits", "misses"} <= set(cache)
        assert not any(
            isinstance(v, float) and math.isnan(v) for v in cache.values()
        )
