"""Live introspection endpoint for running simulations.

A small HTTP/1.1 server on a :mod:`socketserver` thread pool, started
on a daemon thread by ``repro simulate/compare --serve PORT`` and
extended by the ``repro serve`` daemon.  Endpoints:

* ``GET /metrics`` — the shared :class:`MetricsRegistry` in Prometheus
  text exposition format (scrape-ready);
* ``GET /healthz`` — liveness document: uptime, age of the last
  published snapshot, run phase (``idle``/``running``/``finished``);
* ``GET /state``   — JSON dump of the latest :class:`RunSnapshot`
  (sim clock, queue depth, running/queued jobs, per-machine free
  GPUs, allocation epoch, placement-cache counters);
* ``GET /alerts``  — the SLO watchdog's current state (active alerts,
  fired history), or ``{"enabled": false}`` without a watchdog;
* ``GET /decisions`` — the decision-provenance ring (recorder counters
  + the buffered decision records), or ``{"enabled": false}``;
* ``GET /explain/<job_id>`` — the decision chain for one job;
* ``GET /events`` — Server-Sent-Events stream of decision /
  job-state-change / round events, with ``Last-Event-ID`` replay from
  the recorder's ring buffer, so clients stop polling ``/jobs``.
  Idle streams emit a ``: keepalive`` comment frame every
  :attr:`IntrospectionServer.SSE_KEEPALIVE_S` seconds so proxies and
  client timeouts do not reap quiet connections;
* ``GET /timeseries`` — the continuous-telemetry store
  (:mod:`repro.obs.timeseries`): every cluster and per-machine series
  across all three downsampling tiers, or ``{"enabled": false}``
  without a store attached;
* ``GET /cluster`` — the latest per-machine heatmap values (GPU
  occupancy, Eq. 5 fragmentation, link-sharing load), the data the
  ``repro top`` dashboard renders.

Handlers only ever read atomically-swapped immutable objects or
lock-protected recorder entries — a scrape can never block or perturb
the simulation thread; results stay bit-identical with the server
attached (pinned by the fast-path A/B equivalence test).

Routing is table-driven and overridable: subclasses (the scheduler
service daemon) register additional GET routes and POST verbs via
:meth:`IntrospectionServer.get_routes` / :meth:`post_routes` without
re-implementing the HTTP plumbing.  Connections are HTTP/1.1 with
keep-alive, so a replay driver can push thousands of submissions per
second over a handful of sockets; the SSE stream alone closes its
connection when the client disconnects or the server stops.

The reader speaks the subset of HTTP/1.1 those routes need, and no
more.  A request body must come with ``Content-Length``; every answer,
errors included, is one write of head plus body, with a JSON body for
every error.  Malformed input gets these answers:

* bad request line or header line: 400, then close;
* ``POST`` without ``Content-Length``: 411, then close;
* negative or non-numeric ``Content-Length``: 400, then close;
* body over :data:`MAX_BODY_BYTES`: 413, then close;
* request line plus headers over :data:`MAX_HEADER_BYTES`: 431, then
  close;
* ``Transfer-Encoding`` (a chunked body): 501, then close;
* a method other than GET and POST: 501, connection kept;
* unknown route: 404, body read, connection kept;
* client gone mid-head or mid-body: nothing dispatched, connection
  closed.

``Connection: close`` from the client, and any HTTP/1.0 request, close
the connection after the response.
"""

from __future__ import annotations

import json
import selectors
import socket
import socketserver
import threading
import time
from http import HTTPStatus
from typing import Callable

from repro.obs.export import render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.obs.state import SnapshotPublisher

#: (status code, body, content type) triple every route handler returns
Response = tuple[int, str, str]

JSON = "application/json"
PROM = "text/plain; version=0.0.4; charset=utf-8"

#: refuse request bodies beyond this (a submit manifest is ~500 bytes)
MAX_BODY_BYTES = 1 << 20

#: refuse a request line plus header block beyond this (431)
MAX_HEADER_BYTES = 1 << 16


def json_response(code: int, doc: dict) -> Response:
    return code, json.dumps(doc), JSON


class _Handler(socketserver.StreamRequestHandler):
    """One connection: read HTTP/1.1 requests off it until it closes.

    A request is parsed in one pass (request line, headers into a
    lowercase dict, ``Content-Length`` body), then handed to
    :meth:`do_GET` / :meth:`do_POST` with ``path``, ``headers`` and
    ``body`` set.  All routing lives on the server object: it holds
    the route tables its owner (``self.server.owner``, the
    :class:`IntrospectionServer`) built once at start, and the owner
    answers the parameterised routes.  A framing error the stream
    cannot be resynchronised after is answered, then the connection
    closes.
    """

    # without TCP_NODELAY a write that follows an unacknowledged one
    # (a pipelined response, an SSE frame) waits for the client's
    # delayed ACK (~40 ms)
    disable_nagle_algorithm = True

    def handle(self) -> None:
        try:
            while self._serve_one():
                pass
        except ConnectionError:
            pass  # the client went away

    def _serve_one(self) -> bool:
        """Read and answer one request; ``False`` ends the connection."""
        head: list[str] = []
        budget = MAX_HEADER_BYTES
        while True:
            line = self.rfile.readline(budget + 1)
            if len(line) > budget:
                return self._fail(431, "request head too large")
            if not line.endswith(b"\n"):
                return False  # closed between requests or mid-head
            if line in (b"\r\n", b"\n"):
                break
            budget -= len(line)
            head.append(line.decode("latin-1"))
        parts = head[0].split() if head else []
        if len(parts) != 3 or parts[2] not in ("HTTP/1.0", "HTTP/1.1"):
            return self._fail(400, "bad request line")
        method, target, version = parts
        headers: dict[str, str] = {}
        for field in head[1:]:
            name, colon, value = field.partition(":")
            name = name.lower()
            if not colon or not name or name != name.strip():
                return self._fail(400, "bad header line")
            value = value.strip()
            headers[name] = f"{headers[name]}, {value}" if name in headers else value
        self.close_connection = (
            version == "HTTP/1.0"
            or "close" in headers.get("connection", "").lower()
        )
        if "transfer-encoding" in headers:
            return self._fail(501, "Transfer-Encoding is not supported; send Content-Length")
        length = headers.get("content-length")
        if length is None:
            if method == "POST":
                return self._fail(411, "POST needs Content-Length")
            length = "0"
        if not (length.isascii() and length.isdigit()):
            return self._fail(400, "bad Content-Length")
        size = int(length)
        if size > MAX_BODY_BYTES:
            return self._fail(413, "body too large")
        self.body = self.rfile.read(size) if size else b""
        if len(self.body) < size:
            return False  # closed mid-body: nothing is dispatched
        self.path, self.headers = target, headers
        if method == "GET":
            self.do_GET()
        elif method == "POST":
            self.do_POST()
        else:
            self._send(*json_response(501, {"error": f"unsupported method {method}"}))
        return not self.close_connection

    def _fail(self, code: int, error: str) -> bool:
        self.close_connection = True
        self._send(*json_response(code, {"error": error}))
        return False

    def do_GET(self) -> None:
        path = self.path.split("?", 1)[0]
        stream = self.server.stream_table.get(path)
        if stream is not None:
            stream(self)
            return
        handler = self.server.get_table.get(path)
        if handler is not None:
            self._send(*handler())
            return
        response = self.server.owner.dispatch_get(path)
        if response is None:
            self._send(*json_response(404, {"error": f"no route {path}"}))
        else:
            self._send(*response)

    def do_POST(self) -> None:
        path = self.path.split("?", 1)[0]
        handler = self.server.post_table.get(path)
        if handler is None:
            self._send(*json_response(404, {"error": f"no route {path}"}))
            return
        try:
            body = json.loads(self.body) if self.body else {}
        except ValueError:
            self._send(*json_response(400, {"error": "body is not JSON"}))
            return
        if not isinstance(body, dict):
            self._send(*json_response(400, {"error": "body must be an object"}))
            return
        self._send(*handler(body))

    def _send(self, code: int, body: str, content_type: str) -> None:
        payload = body.encode("utf-8")
        close = "Connection: close\r\n" if self.close_connection else ""
        head = (
            f"HTTP/1.1 {code} {HTTPStatus(code).phrase}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n{close}\r\n"
        )
        self.wfile.write(head.encode("latin-1") + payload)


class _Server(socketserver.ThreadingTCPServer):
    """The accept loop waits on the listening socket and on one end of
    a socket pair; :meth:`shutdown` writes to the other end, so the
    loop ends at once rather than at its next poll, and an idle server
    never wakes."""

    daemon_threads = True
    allow_reuse_address = True
    # the owner's route tables, set by IntrospectionServer.start
    # before the first request
    stream_table: dict[str, Callable]
    get_table: dict[str, Callable[[], Response]]
    post_table: dict[str, Callable[[dict], Response]]

    def __init__(self, address, handler) -> None:
        super().__init__(address, handler)
        self._wake_r, self._wake_w = socket.socketpair()
        self._stop_requested = False
        self._loop_done = threading.Event()

    def serve_forever(self, poll_interval: float | None = None) -> None:
        """Accept connections until :meth:`shutdown`.  Nothing polls:
        ``poll_interval`` is the base signature's and unused."""
        self._loop_done.clear()
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(self, selectors.EVENT_READ)
                selector.register(self._wake_r, selectors.EVENT_READ)
                while not self._stop_requested:
                    ready = selector.select()
                    if self._stop_requested:
                        break
                    if any(key.fileobj is self for key, _ in ready):
                        self._handle_request_noblock()
        finally:
            self._stop_requested = False
            self._loop_done.set()

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` and wait until it has returned;
        call it from another thread while the loop runs."""
        self._stop_requested = True
        self._wake_w.send(b"\0")
        self._loop_done.wait()

    def server_close(self) -> None:
        super().server_close()
        self._wake_r.close()
        self._wake_w.close()


class IntrospectionServer:
    """Owns the HTTP server thread and the read-only data sources."""

    def __init__(
        self,
        publisher: SnapshotPublisher,
        registry: MetricsRegistry | None = None,
        watchdog=None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        recorder=None,
        timeseries=None,
    ) -> None:
        self.publisher = publisher
        self.registry = registry
        self.watchdog = watchdog
        #: decision flight recorder (repro.obs.provenance) backing
        #: /decisions, /explain/<id> and the /events SSE stream
        self.recorder = recorder
        #: continuous-telemetry store (repro.obs.timeseries) backing
        #: /timeseries and /cluster
        self.timeseries = timeseries
        self._started_at = time.time()
        self._stopping = threading.Event()
        self._httpd = _Server((host, port), _Handler)
        self._httpd.owner = self  # route lookups go through this back-ref
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # routing tables (subclass extension point; each is read once, by
    # start)
    # ------------------------------------------------------------------
    def get_routes(self) -> dict[str, Callable[[], Response]]:
        """Path -> handler for GET; subclasses extend the dict."""
        return {
            "/metrics": lambda: (200, self.render_metrics(), PROM),
            "/healthz": self._healthz,
            "/state": lambda: (200, self.render_state(), JSON),
            "/alerts": lambda: (200, self.render_alerts(), JSON),
            "/decisions": lambda: (200, self.render_decisions(), JSON),
            "/timeseries": lambda: (200, self.render_timeseries(), JSON),
            "/cluster": lambda: (200, self.render_cluster(), JSON),
        }

    def stream_routes(self) -> dict[str, Callable]:
        """Path -> streaming handler (receives the raw request
        handler; writes its own headers and body, no Content-Length).
        Checked before the plain GET table."""
        return {"/events": self._stream_events}

    def post_routes(self) -> dict[str, Callable[[dict], Response]]:
        """Path -> handler for POST (handler receives the JSON body).

        Empty in the read-only introspection server; the service
        daemon's subclass adds its write verbs here.
        """
        return {}

    def dispatch_get(self, path: str) -> Response | None:
        """Fallback for GET paths missing from the route table —
        subclasses implement parameterised routes (``/jobs/<id>``)
        here.  ``None`` means 404."""
        if path.startswith("/explain/"):
            return self._explain(path[len("/explain/"):])
        return None

    def _explain(self, job_id: str) -> Response:
        if self.recorder is None:
            return json_response(
                404, {"error": "no decision recorder attached"}
            )
        decisions = self.recorder.for_job(job_id)
        if not decisions:
            return json_response(
                404,
                {"error": f"no recorded decisions for job {job_id!r}"},
            )
        return json_response(
            200, self.explain_document(job_id, decisions)
        )

    def explain_document(self, job_id: str, decisions: list[dict]) -> dict:
        """The ``/explain/<id>`` body; subclasses may enrich it."""
        return {
            "job_id": job_id,
            "count": len(decisions),
            "decisions": decisions,
        }

    def _healthz(self) -> Response:
        body, code = self.render_health()
        return code, body, JSON

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "IntrospectionServer":
        self._started_at = time.time()
        self._stopping.clear()
        # the tables never change while the server runs: build them
        # once here (subclass attributes are set by now), not per request
        httpd = self._httpd
        httpd.stream_table = self.stream_routes()
        httpd.get_table = self.get_routes()
        httpd.post_table = self.post_routes()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-introspection",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        # unblock SSE streamers first so their handler threads exit
        # their wait loops instead of holding sockets open
        self._stopping.set()
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "IntrospectionServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # ------------------------------------------------------------------
    # endpoint bodies (also the library/test surface; no HTTP needed)
    # ------------------------------------------------------------------
    def render_metrics(self) -> str:
        if self.registry is None:
            return "# no metrics registry attached\n"
        return render_prometheus(self.registry)

    def render_health(self) -> tuple[str, int]:
        now = time.time()
        snapshot = self.publisher.snapshot
        if snapshot is None:
            phase = "idle"
            last_event_age = None
        else:
            phase = "finished" if snapshot.finished else "running"
            last_event_age = max(0.0, now - snapshot.wall_time)
        doc = {
            "status": "ok",
            "phase": phase,
            "uptime_s": round(now - self._started_at, 6),
            "last_event_age_s": last_event_age,
        }
        return json.dumps(doc), 200

    def render_state(self) -> str:
        snapshot = self.publisher.snapshot
        if snapshot is None:
            return json.dumps({"phase": "idle", "snapshot": None})
        return json.dumps(snapshot.to_dict())

    def render_alerts(self) -> str:
        if self.watchdog is None:
            return json.dumps({"enabled": False, "active": [], "fired": []})
        return json.dumps(self.watchdog.published_state())

    def render_timeseries(self) -> str:
        if self.timeseries is None:
            return json.dumps({"enabled": False, "cluster": {},
                               "machines": {}})
        return json.dumps(self.timeseries.document())

    def render_cluster(self) -> str:
        if self.timeseries is None:
            return json.dumps({"enabled": False, "machines": {}})
        return json.dumps(self.timeseries.cluster_document())

    def render_decisions(self) -> str:
        recorder = self.recorder
        if recorder is None:
            return json.dumps(
                {"enabled": False, "recorded": 0, "dropped": 0,
                 "decisions": []}
            )
        counts = recorder.counts()
        return json.dumps(
            {
                "enabled": True,
                "recorded": counts["recorded"],
                "dropped": counts["dropped"],
                "last_seq": recorder.last_seq,
                "decisions": recorder.decisions(),
            }
        )

    # ------------------------------------------------------------------
    # the SSE stream (runs on the per-connection handler thread)
    # ------------------------------------------------------------------
    #: how long one wait-for-events cycle blocks before re-checking the
    #: stopping flag (bounds shutdown latency for idle streams)
    SSE_WAIT_S = 0.25

    #: idle gap after which the stream emits a ``: keepalive`` comment
    #: frame (SSE comments are ignored by clients but keep proxies and
    #: socket timeouts from reaping a quiet connection); override on
    #: the instance to tune, <= 0 disables
    SSE_KEEPALIVE_S = 15.0

    def _stream_events(self, handler) -> None:
        """``GET /events``: push recorder entries as they arrive.

        Frames follow the SSE protocol: ``id:`` carries the record's
        ring sequence number, ``event:`` its kind (``decision`` /
        ``job`` / ``round``) and ``data:`` the JSON line — the *same*
        serialised string a ``--decisions-out`` journal holds, so
        streamed decisions byte-match journaled records.  A client
        reconnecting with a ``Last-Event-ID`` header resumes from the
        ring without duplicates (entries already evicted are gone —
        ``/decisions`` reports the drop counter).  Between data frames
        an idle stream heartbeats with ``: keepalive`` comments every
        :attr:`SSE_KEEPALIVE_S` seconds.
        """
        recorder = self.recorder
        if recorder is None:
            handler._send(
                *json_response(404, {"error": "no decision recorder attached"})
            )
            return
        try:
            cursor = int(handler.headers.get("last-event-id") or 0)
        except ValueError:
            cursor = 0
        handler.close_connection = True
        wfile = handler.wfile
        try:
            wfile.write(
                b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n"
                b"Cache-Control: no-cache\r\nConnection: close\r\n\r\n"
                b": stream open\n\n"
            )
            last_write = time.monotonic()
            while not self._stopping.is_set():
                entries = recorder.entries_after(cursor)
                for seq, kind, line in entries:
                    wfile.write(
                        f"id: {seq}\nevent: {kind}\ndata: {line}\n\n".encode()
                    )
                    cursor = seq
                if entries:
                    wfile.flush()
                    last_write = time.monotonic()
                else:
                    recorder.wait_beyond(cursor, self.SSE_WAIT_S)
                    keepalive = self.SSE_KEEPALIVE_S
                    if (
                        keepalive > 0
                        and time.monotonic() - last_write >= keepalive
                    ):
                        wfile.write(b": keepalive\n\n")
                        wfile.flush()
                        last_write = time.monotonic()
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # client went away: normal stream teardown
