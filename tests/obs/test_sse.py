"""SSE event streaming: replay, overflow, disconnects, determinism."""

import http.client
import json
import urllib.parse
import urllib.request

import pytest

from repro.analysis.scenarios import table1_jobs
from repro.obs import MetricsRegistry
from repro.obs.provenance import DecisionRecorder
from repro.obs.server import IntrospectionServer
from repro.obs.state import SnapshotPublisher


class SSEClient:
    """Minimal SSE reader with explicit connection control."""

    def __init__(self, url: str, last_event_id: int | None = None) -> None:
        parsed = urllib.parse.urlsplit(url)
        self.conn = http.client.HTTPConnection(
            parsed.hostname, parsed.port, timeout=10
        )
        headers = {}
        if last_event_id is not None:
            headers["Last-Event-ID"] = str(last_event_id)
        self.conn.request("GET", "/events", headers=headers)
        self.resp = self.conn.getresponse()

    def read_frames(self, n: int) -> list[dict]:
        """Read ``n`` SSE frames ({'id','event','data'} dicts)."""
        frames: list[dict] = []
        buf: dict = {}
        while len(frames) < n:
            line = self.resp.readline().decode("utf-8").rstrip("\n")
            if line.startswith(":"):
                continue  # comment / keep-alive
            if not line:
                if buf:
                    frames.append(buf)
                    buf = {}
                continue
            key, _, value = line.partition(": ")
            buf[key] = value
        return frames

    def close(self) -> None:
        self.conn.close()


@pytest.fixture()
def recorder_server():
    recorder = DecisionRecorder(journal=True)
    server = IntrospectionServer(
        SnapshotPublisher(), MetricsRegistry(), recorder=recorder
    )
    server.start()
    yield recorder, server
    server.stop()


def record_decisions(recorder: DecisionRecorder, n: int) -> None:
    job = table1_jobs()[0]
    for _ in range(n):
        recorder.decision(
            t=0.0,
            scheduler="TOPO-AWARE",
            job=job,
            queued=1,
            verdict="no-fit",
            reason="capacity",
        )


class TestStream:
    def test_headers_and_live_frames(self, recorder_server):
        recorder, server = recorder_server
        client = SSEClient(server.url)
        assert client.resp.status == 200
        assert client.resp.getheader("Content-Type").startswith(
            "text/event-stream"
        )
        record_decisions(recorder, 2)
        frames = client.read_frames(2)
        client.close()
        assert [f["event"] for f in frames] == ["decision", "decision"]
        assert [int(f["id"]) for f in frames] == [1, 2]
        for frame in frames:
            assert json.loads(frame["data"])["verdict"] == "no-fit"

    def test_last_event_id_replays_from_ring(self, recorder_server):
        recorder, server = recorder_server
        record_decisions(recorder, 5)
        client = SSEClient(server.url, last_event_id=2)
        frames = client.read_frames(3)
        client.close()
        assert [int(f["id"]) for f in frames] == [3, 4, 5]
        # replayed payloads byte-match the journal lines
        assert [f["data"] for f in frames] == recorder.journal[2:]

    def test_ring_overflow_replay_starts_at_oldest_kept(self):
        recorder = DecisionRecorder(ring_size=4, journal=True)
        server = IntrospectionServer(
            SnapshotPublisher(), MetricsRegistry(), recorder=recorder
        )
        server.start()
        try:
            record_decisions(recorder, 10)
            assert recorder.counts()["dropped"] == 6
            client = SSEClient(server.url, last_event_id=0)
            frames = client.read_frames(4)
            client.close()
            # only the four ring survivors replay: seqs 7..10
            assert [int(f["id"]) for f in frames] == [7, 8, 9, 10]
        finally:
            server.stop()

    def test_disconnect_mid_stream_leaves_server_healthy(
        self, recorder_server
    ):
        recorder, server = recorder_server
        client = SSEClient(server.url)
        record_decisions(recorder, 1)
        client.read_frames(1)
        client.close()  # server's write loop hits the dead socket
        record_decisions(recorder, 2)
        # new client still gets the full replay, plain routes still work
        late = SSEClient(server.url, last_event_id=0)
        frames = late.read_frames(3)
        late.close()
        assert [int(f["id"]) for f in frames] == [1, 2, 3]
        with urllib.request.urlopen(server.url + "/healthz", timeout=5) as r:
            assert r.status == 200

    def test_events_404_without_recorder(self):
        server = IntrospectionServer(SnapshotPublisher(), MetricsRegistry())
        server.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url + "/events", timeout=5)
            assert err.value.code == 404
        finally:
            server.stop()

    def test_decisions_endpoint(self, recorder_server):
        recorder, server = recorder_server
        record_decisions(recorder, 3)
        with urllib.request.urlopen(server.url + "/decisions", timeout=5) as r:
            doc = json.load(r)
        assert doc["enabled"] is True
        assert doc["recorded"] == 3
        assert doc["dropped"] == 0
        assert len(doc["decisions"]) == 3


class TestKeepalive:
    def read_raw_lines(self, resp, n: int) -> list[str]:
        return [
            resp.readline().decode("utf-8").rstrip("\n") for _ in range(n)
        ]

    def test_idle_stream_emits_keepalive_comments(self):
        recorder = DecisionRecorder(journal=True)
        server = IntrospectionServer(
            SnapshotPublisher(), MetricsRegistry(), recorder=recorder
        )
        # instance override: fast heartbeat, fast wait granularity
        server.SSE_KEEPALIVE_S = 0.2
        server.SSE_WAIT_S = 0.05
        server.start()
        client = SSEClient(server.url)
        try:
            # ": stream open" comment + blank, then with no events at
            # all the idle loop must heartbeat within ~SSE_KEEPALIVE_S
            lines = self.read_raw_lines(client.resp, 4)
            assert lines[0] == ": stream open"
            assert ": keepalive" in lines
            # a slow consumer that only reads comments still gets real
            # frames afterwards: the heartbeat never corrupts framing
            record_decisions(recorder, 1)
            (frame,) = client.read_frames(1)
            assert frame["event"] == "decision"
            assert json.loads(frame["data"])["verdict"] == "no-fit"
        finally:
            client.close()
            server.stop()

    def test_keepalive_disabled_with_nonpositive_interval(self):
        recorder = DecisionRecorder(journal=True)
        server = IntrospectionServer(
            SnapshotPublisher(), MetricsRegistry(), recorder=recorder
        )
        server.SSE_KEEPALIVE_S = 0.0
        server.SSE_WAIT_S = 0.05
        server.start()
        client = SSEClient(server.url)
        try:
            lines = self.read_raw_lines(client.resp, 2)
            assert lines == [": stream open", ""]
            # idle for several would-be heartbeat periods, then a real
            # event: the very next frame is data, no comments in between
            import time

            time.sleep(0.5)
            record_decisions(recorder, 1)
            line = client.resp.readline().decode("utf-8").rstrip("\n")
            assert line.startswith("id: ")
        finally:
            client.close()
            server.stop()


class TestDaemonDeterminism:
    def test_streamed_decisions_match_journal(self):
        """A client streaming from a paused daemon sees, after resume,
        byte-for-byte the records the journal keeps, of every kind —
        the SSE path adds no serialisation drift."""
        from repro.service import SchedulerService, ServiceServer
        from repro.topology.builders import cluster

        service = SchedulerService(
            cluster(2), "TOPO-AWARE", decision_journal=True
        )
        service.start()
        service.pause()
        server = ServiceServer(service, port=0).start()
        try:
            client = SSEClient(server.url, last_event_id=0)
            for i in range(4):
                service.submit(
                    {
                        "id": f"sse-{i}",
                        "model": "alexnet",
                        "batch_size": 4,
                        "num_gpus": 2,
                    }
                )
            service.resume()
            assert service.drain(30.0)
            journal = list(service.decision_recorder.journal)
            # at least one decision happened
            assert any('"kind": "decision"' in line for line in journal)
            frames = client.read_frames(len(journal))
            client.close()
            assert [f["data"] for f in frames] == journal
            assert [int(f["id"]) for f in frames] == [
                json.loads(line)["seq"] for line in journal
            ]
        finally:
            server.stop()
            service.stop()
