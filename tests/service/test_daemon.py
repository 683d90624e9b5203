"""Scheduler service daemon: API semantics, HTTP verbs, recovery."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.analysis.scenarios import scenario1_jobs
from repro.service import SchedulerService, ServiceServer
from repro.service.daemon import JOURNAL_ERROR, JournalError
from repro.service.statemachine import JobState
from repro.sim.hooks import BaseObserver
from repro.topology.builders import cluster
from repro.workload.job import Job, ModelType
from repro.workload.manifest import ManifestError, job_to_dict


def make_job(job_id: str, num_gpus: int = 2, **kwargs) -> Job:
    return Job(job_id, ModelType.ALEXNET, 4, num_gpus, **kwargs)


def submit_doc(job_id: str, num_gpus: int = 2, **kwargs) -> dict:
    return job_to_dict(make_job(job_id, num_gpus, **kwargs))


@pytest.fixture
def service(tmp_path):
    svc = SchedulerService(
        cluster(2), "TOPO-AWARE", store_path=str(tmp_path / "svc.db")
    )
    with svc:
        yield svc


class TestSubmitAndRun:
    def test_submission_runs_to_finished(self, service):
        result = service.submit(submit_doc("a"))
        assert result.decision.admitted
        assert result.state == "SUBMITTED"
        assert service.drain()
        assert service.lifecycle.state("a") is JobState.FINISHED
        doc = service.job_status("a")
        assert doc["state"] == "FINISHED"
        assert doc["record"]["finished_at"] > doc["record"]["arrival"]
        assert len(doc["record"]["gpus"]) == 2

    def test_rejections(self, service):
        service.submit(submit_doc("a"))
        assert service.submit(submit_doc("a")).decision.reason == "duplicate"
        # cluster(2) = 2 minsky machines = 8 GPUs
        over = service.submit(submit_doc("big", num_gpus=9))
        assert over.decision.reason == "over-capacity"
        with pytest.raises(ManifestError):
            service.submit({"id": "bad", "model": "resnet-50", "num_gpus": 2})

    def test_queue_full_backpressure(self, tmp_path):
        svc = SchedulerService(
            cluster(2),
            "TOPO-AWARE",
            store_path=str(tmp_path / "svc.db"),
            max_queue_depth=1,
        )
        with svc:
            svc.pause()
            assert svc.submit(submit_doc("a")).decision.admitted
            assert svc.submit(submit_doc("b")).decision.reason == "queue-full"

    def test_journal_records_the_full_lifecycle(self, service):
        service.submit(submit_doc("a"))
        assert service.drain()
        hops = [
            (frm, to) for _, frm, to, _ in service.store.transitions("a")
        ]
        assert hops == [
            (None, "SUBMITTED"),
            ("SUBMITTED", "QUEUED"),
            ("QUEUED", "PLACED"),
            ("PLACED", "RUNNING"),
            ("RUNNING", "FINISHED"),
        ]


class TestJobStatusIsCommitted:
    def test_no_live_record_beside_an_older_state(self, tmp_path):
        # park the loop inside the step that finishes "a": the engine
        # record has its finished_at, the lifecycle still says RUNNING
        parked, release = threading.Event(), threading.Event()

        class ParkOnFinish(BaseObserver):
            def on_finish(self, t, job, gpus):
                parked.set()
                release.wait(10.0)

        svc = SchedulerService(
            cluster(2),
            "TOPO-AWARE",
            store_path=str(tmp_path / "svc.db"),
            extra_observers=(ParkOnFinish(),),
        )
        seen: dict = {}
        with svc:
            try:
                svc.submit(submit_doc("a"))
                assert parked.wait(10.0)
                reader = threading.Thread(
                    target=lambda: seen.update(svc.job_status("a"))
                )
                reader.start()
                reader.join(0.2)  # reads now, or waits for the commit
            finally:
                release.set()
            reader.join(10.0)
            assert svc.drain()
        assert (seen["state"] == "FINISHED") == (
            seen["record"]["finished_at"] is not None
        )


class TestJournalFailure:
    """A submission the journal refuses is withdrawn, not half-kept."""

    def test_failed_journal_write_releases_the_reservation(
        self, service, fail_nth_execute
    ):
        service.pause()
        depth = service.queue.depth
        fail_nth_execute(service.store, 2)
        with pytest.raises(JournalError) as exc:
            service.submit(submit_doc("a"))
        assert exc.value.job_id == "a"
        assert service.queue.depth == depth
        assert len(service.queue) == 0
        assert "a" not in service.lifecycle
        assert service.store.load_job("a") is None
        admissions = service.registry.get("repro_service_admissions_total")
        assert admissions.value(decision=JOURNAL_ERROR) == 1
        assert admissions.value(decision="admitted") == 0
        # the same id is admitted on resubmission and runs normally
        assert service.submit(submit_doc("a")).decision.admitted
        assert service.queue.depth == depth + 1
        service.resume()
        assert service.drain()
        assert service.lifecycle.state("a") is JobState.FINISHED
        assert [row[1:3] for row in service.store.transitions("a")][:2] == [
            (None, "SUBMITTED"),
            ("SUBMITTED", "QUEUED"),
        ]


def fail_stop_after_running(service, fail_nth_execute) -> None:
    """Fail-stop ``service`` with job "a" committed RUNNING: the engine
    finishes "a" but the FINISHED hop's write fails."""
    service.pause()
    service.submit(submit_doc("a"))
    assert service.drain()
    # the next iteration writes QUEUED, PLACED and RUNNING (six
    # statements); the one after writes FINISHED, whose first fails
    fail_nth_execute(service.store, 7)
    service.resume()
    assert not service.drain(timeout_s=10)
    assert "injected" in service.failure
    assert service.lifecycle.state("a") is JobState.RUNNING
    # the engine moved past the journal
    assert service.sim.record_of("a").finished_at is not None


class TestAfterFailStop:
    """A fail-stopped service takes no further request and serves only
    what its journal committed."""

    def test_cancel_and_evict_are_refused(self, service, fail_nth_execute):
        fail_stop_after_running(service, fail_nth_execute)
        for verb in (service.cancel, service.evict):
            with pytest.raises(JournalError) as exc:
                verb("a")
            assert exc.value.job_id == "a"
            assert "injected" in str(exc.value)
        assert service._cancels == [] and service._evictions == []
        # unknown and terminal ids keep their own answers
        with pytest.raises(KeyError):
            service.cancel("ghost")

    def test_stopped_service_refuses_cancel(self, tmp_path):
        svc = SchedulerService(
            cluster(2), "TOPO-AWARE", store_path=str(tmp_path / "svc.db")
        )
        with svc:
            svc.pause()
            svc.submit(submit_doc("a"))
            assert svc.drain()
        with pytest.raises(JournalError, match="stopped"):
            svc.cancel("a")
        assert svc._cancels == []

    def test_job_status_serves_only_the_committed_state(
        self, service, fail_nth_execute
    ):
        fail_stop_after_running(service, fail_nth_execute)
        assert service.job_status("a") == {"id": "a", "state": "RUNNING"}


class TestCancel:
    def test_cancel_unknown_raises(self, service):
        with pytest.raises(KeyError):
            service.cancel("ghost")

    def test_cancel_terminal_raises(self, service):
        service.submit(submit_doc("a"))
        assert service.drain()
        with pytest.raises(ValueError):
            service.cancel("a")

    def test_cancel_while_paused_reaches_cancelled(self, service):
        service.pause()
        service.submit(submit_doc("a"))
        assert service.drain()  # inbox applied, engine not stepped
        seen = service.cancel("a")
        assert seen == "SUBMITTED"
        assert service.drain()
        assert service.lifecycle.state("a") is JobState.CANCELLED
        assert service.queue.depth == 0
        service.resume()
        assert service.drain()
        assert service.lifecycle.state("a") is JobState.CANCELLED


class TestPauseResume:
    def test_paused_engine_holds_submissions(self, service):
        service.pause()
        assert service.paused
        service.submit(submit_doc("a"))
        assert service.drain()
        # applied to the engine but never stepped: still SUBMITTED
        assert service.lifecycle.state("a") is JobState.SUBMITTED
        service.resume()
        assert service.drain()
        assert service.lifecycle.state("a") is JobState.FINISHED


class TestStuckQueue:
    def test_unplaceable_job_fails_loudly(self, service):
        # 8 GPUs exist cluster-wide but no single machine has 8: a
        # single-node job can never place — the daemon must FAIL it,
        # mirroring the one-shot run loop's exit rule
        service.submit(submit_doc("wide", num_gpus=8, single_node=True))
        assert service.drain()
        assert service.lifecycle.state("wide") is JobState.FAILED
        assert service.job_status("wide")["record"]["unplaceable"] is True
        assert service.queue.depth == 0

    def test_unplaceable_job_is_not_cancelled(self, service):
        """The job ends one way: FAILED and unplaceable, with no cancel
        on its record, in the decision journal or in the counters."""
        service.submit(submit_doc("small"))
        service.submit(submit_doc("big", num_gpus=8, single_node=True))
        assert service.drain()
        assert service.lifecycle.state("big") is JobState.FAILED
        record = service.job_status("big")["record"]
        assert record["unplaceable"] is True
        assert record["cancelled_at"] is None
        states = [
            json.loads(line)["state"]
            for _, kind, line in service.decision_recorder.entries_after(0)
            if kind == "job" and json.loads(line)["job_id"] == "big"
        ]
        assert states == ["QUEUED"]
        assert service.registry.get("repro_evictions_total").value(
            scheduler="TOPO-AWARE", reason="cancel"
        ) == 0


class TestRestartRecovery:
    def test_killed_daemon_resumes_its_queue(self, tmp_path):
        path = str(tmp_path / "svc.db")
        first = SchedulerService(cluster(2), "TOPO-AWARE", store_path=path)
        with first:
            first.submit(submit_doc("done"))
            first.drain()
            assert first.lifecycle.state("done") is JobState.FINISHED
            first.pause()  # hold the engine so nothing else completes
            for i in range(5):
                first.submit(submit_doc(f"j{i}"))
            first.drain()
        # `with` exit = stop(): the paused jobs j0..j4 died non-terminal
        second = SchedulerService(cluster(2), "TOPO-AWARE", store_path=path)
        assert second.recovered_jobs == 5
        with second:
            assert second.drain(timeout_s=60.0)
            for i in range(5):
                assert second.lifecycle.state(f"j{i}") is JobState.FINISHED
            # terminal ids from the previous life stay reserved
            assert (
                second.submit(submit_doc("done")).decision.reason
                == "duplicate"
            )


# ----------------------------------------------------------------------
# the HTTP face
# ----------------------------------------------------------------------
def http(method: str, url: str, body: dict | None = None):
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        url,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as resp:
            return resp.status, json.loads(resp.read() or b"{}")
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}")


@pytest.fixture
def served(service):
    with ServiceServer(service) as server:
        yield service, server.url


class TestHTTPVerbs:
    def test_submit_cancel_jobs_roundtrip(self, served):
        service, url = served
        service.pause()
        code, doc = http("POST", f"{url}/submit", submit_doc("a"))
        assert (code, doc) == (202, {"id": "a", "state": "SUBMITTED"})
        code, doc = http("GET", f"{url}/jobs")
        assert code == 200
        assert doc["jobs"] == {"a": "SUBMITTED"}
        assert doc["queue_depth"] == 1 and doc["paused"] is True
        code, doc = http("POST", f"{url}/cancel", {"id": "a"})
        assert code == 202
        assert service.drain()
        code, doc = http("GET", f"{url}/jobs/a")
        assert code == 200 and doc["state"] == "CANCELLED"

    def test_rejection_status_codes(self, served):
        service, url = served
        service.pause()
        http("POST", f"{url}/submit", submit_doc("a"))
        assert http("POST", f"{url}/submit", submit_doc("a"))[0] == 409
        assert (
            http("POST", f"{url}/submit", submit_doc("big", num_gpus=9))[0]
            == 422
        )
        code, doc = http(
            "POST", f"{url}/submit", {"id": "bad", "model": "nope"}
        )
        assert code == 400 and "error" in doc

    def test_queue_full_is_429(self, tmp_path):
        svc = SchedulerService(
            cluster(2),
            "TOPO-AWARE",
            store_path=str(tmp_path / "svc.db"),
            max_queue_depth=1,
        )
        with svc, ServiceServer(svc) as server:
            svc.pause()
            http("POST", f"{server.url}/submit", submit_doc("a"))
            assert (
                http("POST", f"{server.url}/submit", submit_doc("b"))[0]
                == 429
            )

    def test_cancel_error_codes(self, served):
        service, url = served
        assert http("POST", f"{url}/cancel", {"id": "ghost"})[0] == 404
        assert http("POST", f"{url}/cancel", {})[0] == 400
        http("POST", f"{url}/submit", submit_doc("a"))
        assert service.drain()
        assert http("POST", f"{url}/cancel", {"id": "a"})[0] == 409

    def test_unknown_job_route_404(self, served):
        _, url = served
        assert http("GET", f"{url}/jobs/ghost")[0] == 404
        assert http("GET", f"{url}/nope")[0] == 404

    def test_pause_resume_verbs(self, served):
        service, url = served
        assert http("POST", f"{url}/pause") == (200, {"paused": True})
        assert service.paused
        assert http("POST", f"{url}/resume") == (200, {"paused": False})
        assert not service.paused

    def test_metrics_and_state_carry_service_families(self, served):
        service, url = served
        for job_id in ("b", "a", "c"):  # out of id order on purpose
            http("POST", f"{url}/submit", submit_doc(job_id))
        assert service.drain()
        with urllib.request.urlopen(f"{url}/metrics", timeout=10) as resp:
            text = resp.read().decode()
        assert "repro_service_submissions_total" in text
        assert "repro_service_submission_latency_seconds" in text
        code, doc = http("GET", f"{url}/state")
        assert code == 200
        assert doc["job_states"] == {
            "a": "FINISHED", "b": "FINISHED", "c": "FINISHED"
        }
        assert list(doc["job_states"]) == ["a", "b", "c"]
        code, jobs = http("GET", f"{url}/jobs")
        assert code == 200
        assert doc["job_states"] == jobs["jobs"]
        assert list(jobs["jobs"]) == ["a", "b", "c"]

    def test_failed_journal_write_is_503_and_resubmittable(
        self, served, fail_nth_execute
    ):
        service, url = served
        service.pause()
        depth = service.queue.depth
        fail_nth_execute(service.store, 2)
        code, doc = http("POST", f"{url}/submit", submit_doc("a"))
        assert code == 503
        assert doc["id"] == "a" and doc["rejected"] == JOURNAL_ERROR
        assert "not journaled" in doc["error"]
        assert service.queue.depth == depth
        assert http("GET", f"{url}/jobs")[1]["jobs"] == {}
        code, doc = http("POST", f"{url}/submit", submit_doc("a"))
        assert (code, doc) == (202, {"id": "a", "state": "SUBMITTED"})
        assert service.queue.depth == depth + 1


    def test_after_fail_stop_cancel_evict_503_and_status_committed(
        self, served, fail_nth_execute
    ):
        service, url = served
        fail_stop_after_running(service, fail_nth_execute)
        for verb in ("cancel", "evict"):
            code, doc = http("POST", f"{url}/{verb}", {"id": "a"})
            assert code == 503
            assert doc["id"] == "a" and "injected" in doc["error"]
        assert http("POST", f"{url}/cancel", {"id": "ghost"})[0] == 404
        code, doc = http("GET", f"{url}/jobs/a")
        assert (code, doc) == (200, {"id": "a", "state": "RUNNING"})

class TestTapsBoundAtStart:
    """``Simulator.start`` binds every daemon tap: the telemetry
    observer reads the engine and the recorder opens the stream."""

    def test_metrics_carry_the_engine_counters_after_drain(self, tmp_path):
        svc = SchedulerService(
            cluster(4), "TOPO-AWARE", store_path=str(tmp_path / "svc.db")
        )
        with svc:
            for job in scenario1_jobs(30, seed=1):
                assert svc.submit(job_to_dict(job)).decision.admitted
            assert svc.drain()
            engine = svc.sim.cluster.engine
            prefilter = engine.prefilter_stats()
            assert engine.stats.misses > 0 and prefilter["considered"] > 0

            def value(name: str) -> float:
                return svc.registry.get(name).value(scheduler="TOPO-AWARE")

            assert value("repro_placement_cache_hits_total") == engine.stats.hits
            assert value("repro_placement_cache_misses_total") == (
                engine.stats.misses
            )
            assert value("repro_placement_cache_invalidations_total") == (
                engine.stats.invalidations
            )
            assert value("repro_placement_cache_hit_rate") == (
                engine.stats.hit_rate
            )
            assert value("repro_placement_prefilter_considered_total") == (
                prefilter["considered"]
            )
            assert value("repro_placement_prefilter_pruned_total") == (
                prefilter["pruned"]
            )
            assert value("repro_gpus_busy") == svc.publisher.snapshot.gpus_busy

    def test_record_stream_opens_with_run_start(self, service):
        service.submit(submit_doc("a"))
        assert service.drain()
        (seq, kind, line), *_ = service.decision_recorder.entries_after(0)
        assert (seq, kind) == (1, "run_start")
        record = json.loads(line)
        assert record["jobs"] == 0
        assert record["total_gpus"] == 8
        assert record["scheduler"] == "TOPO-AWARE"
