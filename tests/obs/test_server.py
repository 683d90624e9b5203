"""Introspection server: endpoint bodies, HTTP plumbing, run wiring."""

import json
import math
import socket
import urllib.error
import urllib.request

import pytest

from repro.analysis.scenarios import table1_jobs
from repro.obs import MetricsRegistry
from repro.obs.alerts import Rule, Watchdog
from repro.obs.server import (
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    IntrospectionServer,
    json_response,
)
from repro.obs.state import (
    RunSnapshot,
    STATE_SCHEMA_VERSION,
    SnapshotObserver,
    SnapshotPublisher,
)
from repro.obs.telemetry import TelemetryObserver
from repro.schedulers import make_scheduler
from repro.sim.engine import Simulator
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


class RecordingServer(IntrospectionServer):
    """An introspection server with one POST verb that records what
    reached it."""

    def __init__(self) -> None:
        super().__init__(SnapshotPublisher())
        self.posted: list[dict] = []

    def post_routes(self):
        return {"/submit": self._submit}

    def _submit(self, body: dict):
        self.posted.append(body)
        return json_response(202, {"accepted": True})


class RawConnection:
    """One client socket, written and read byte for byte."""

    def __init__(self, server: IntrospectionServer) -> None:
        self.sock = socket.create_connection((server.host, server.port), timeout=5)
        self.rfile = self.sock.makefile("rb")

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def response(self) -> tuple[int, dict, bytes]:
        status = self.rfile.readline()
        assert status.startswith(b"HTTP/1.1 "), status
        headers = {}
        while (line := self.rfile.readline()) not in (b"\r\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.lower()] = value.strip()
        body = self.rfile.read(int(headers["content-length"]))
        return int(status.split()[1]), headers, body

    def closed_by_server(self) -> bool:
        return self.rfile.read(1) == b""

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


@pytest.fixture()
def raw():
    """A recording server and a factory of raw connections to it."""
    conns: list[RawConnection] = []
    with RecordingServer() as server:

        def connect() -> RawConnection:
            conns.append(RawConnection(server))
            return conns[-1]

        yield server, connect
        for conn in conns:
            conn.close()


def healthy(server: IntrospectionServer) -> bool:
    status, _, body = fetch(server.url + "/healthz")
    return status == 200 and json.loads(body)["status"] == "ok"


class TestMalformedInput:
    """Every malformed request gets a documented answer with a JSON
    body; an error the stream cannot resync after closes it."""

    @pytest.mark.parametrize("head, code", [
        (b"GARBAGE\r\n\r\n", 400),
        (b"GET /healthz\r\n\r\n", 400),
        (b"GET /healthz HTTP/2.0\r\n\r\n", 400),
        (b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n", 400),
        (b"POST /submit HTTP/1.1\r\nHost: x\r\n\r\n", 411),
        (b"POST /submit HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400),
        (b"POST /submit HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
        (b"POST /submit HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
         % (MAX_BODY_BYTES + 1), 413),
        (b"GET /healthz HTTP/1.1\r\nX-Big: %s\r\n\r\n"
         % (b"a" * MAX_HEADER_BYTES), 431),
        (b"POST /submit HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
         b"2\r\n{}\r\n0\r\n\r\n", 501),
    ], ids=["garbage", "two-words", "http2", "header-line", "no-length",
            "negative-length", "text-length", "body-too-large",
            "head-too-large", "chunked"])
    def test_framing_errors_answer_then_close(self, raw, head, code):
        server, connect = raw
        conn = connect()
        conn.send(head)
        status, headers, body = conn.response()
        assert status == code
        assert headers["content-type"] == "application/json"
        assert headers["connection"] == "close"
        assert "error" in json.loads(body)
        assert conn.closed_by_server()
        assert server.posted == []
        assert healthy(server)

    def test_chunked_submit_runs_no_handler_and_no_next_request(self, raw):
        server, connect = raw
        conn = connect()
        conn.send(b"POST /submit HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                  b"12\r\n{\"id\": \"chunked-1\"}\r\n0\r\n\r\n"
                  b"POST /submit HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}")
        assert conn.response()[0] == 501
        assert conn.closed_by_server()
        assert server.posted == []

    def test_unknown_method_is_501_and_keeps_the_connection(self, raw):
        _, connect = raw
        conn = connect()
        conn.send(b"DELETE /state HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n")
        status, _, body = conn.response()
        assert status == 501 and json.loads(body)["error"]
        assert conn.response()[0] == 200

    def test_404_post_reads_its_body_and_serves_a_pipelined_get(self, raw):
        server, connect = raw
        conn = connect()
        body = b'{"GET /x": 1}'
        conn.send(b"POST /nope HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
                  b"GET /healthz HTTP/1.1\r\n\r\n" % (len(body), body))
        status, _, doc = conn.response()
        assert status == 404 and json.loads(doc) == {"error": "no route /nope"}
        status, headers, doc = conn.response()
        assert status == 200 and json.loads(doc)["status"] == "ok"
        assert "connection" not in headers
        # the connection is still open for a third request
        conn.send(b'POST /submit HTTP/1.1\r\nContent-Length: 8\r\n\r\n{"a": 1}')
        assert conn.response()[0] == 202
        assert server.posted == [{"a": 1}]

    def test_disconnect_mid_body_dispatches_nothing(self, raw):
        server, connect = raw
        conn = connect()
        conn.send(b'POST /submit HTTP/1.1\r\nContent-Length: 100\r\n\r\n{"id": ')
        conn.close()
        assert healthy(server)
        assert server.posted == []

    @pytest.mark.parametrize("head", [
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        b"GET /healthz HTTP/1.0\r\n\r\n",
    ], ids=["connection-close", "http1.0"])
    def test_close_after_one_response(self, raw, head):
        _, connect = raw
        conn = connect()
        conn.send(head + b"GET /healthz HTTP/1.1\r\n\r\n")
        status, headers, _ = conn.response()
        assert status == 200 and headers["connection"] == "close"
        assert conn.closed_by_server()


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

    def test_held_rounds_publish_once_on_release(self):
        publisher = SnapshotPublisher()
        observer = SnapshotObserver(
            publisher, clock=lambda: 0.0, min_publish_interval_s=0.0
        )
        sim = Simulator(
            power8_minsky(), make_scheduler("TOPO-AWARE"), table1_jobs(),
            observers=[observer],
        ).start()
        bound = publisher.snapshot
        observer.hold()
        while sim.step():
            pass
        assert publisher.snapshot is bound  # nothing published while held
        observer.release()
        assert publisher.snapshot.decision_rounds > bound.decision_rounds
        released = publisher.snapshot
        observer.release()  # nothing came due since: no rebuild
        assert publisher.snapshot is released

    def test_next_publish_in_follows_the_throttle(self):
        now = [100.0]
        observer = SnapshotObserver(
            SnapshotPublisher(), clock=lambda: now[0],
            min_publish_interval_s=0.05,
        )
        Simulator(
            power8_minsky(), make_scheduler("TOPO-AWARE"), table1_jobs(),
            observers=[observer],
        ).start()  # the bind-time publish at t=100
        assert observer.next_publish_in() == pytest.approx(0.05)
        now[0] = 100.03
        assert observer.next_publish_in() == pytest.approx(0.02)
        now[0] = 100.2
        assert observer.next_publish_in() <= 0
        now[0] = 50.0  # the wall clock stepped back
        assert observer.next_publish_in() == pytest.approx(0.05)

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
