"""Service eviction verb: RUNNING -> QUEUED -> re-placed -> FINISHED."""

import json
import urllib.error
import urllib.request

import pytest

from repro.service import SchedulerService, ServiceServer
from repro.service.statemachine import JobState
from repro.topology.builders import cluster
from repro.workload.job import Job, ModelType
from repro.workload.manifest import job_to_dict


def submit_doc(job_id: str, num_gpus: int = 2, **kwargs) -> dict:
    return job_to_dict(Job(job_id, ModelType.ALEXNET, 4, num_gpus, **kwargs))


@pytest.fixture
def service(tmp_path):
    svc = SchedulerService(
        cluster(2), "TOPO-AWARE", store_path=str(tmp_path / "svc.db")
    )
    with svc:
        yield svc


def run_until_running(service, job_id):
    """Pause the loop, feed the inbox, then step the engine exactly
    once so the job is RUNNING but its Finish event has not fired."""
    service.drain()  # inbox applied while paused; arrival still pending
    service.sim.step()
    assert service.lifecycle.state(job_id) is JobState.RUNNING


class TestEvictVerb:
    def test_evict_unknown_raises(self, service):
        with pytest.raises(KeyError):
            service.evict("ghost")

    def test_evict_not_running_raises(self, service):
        service.pause()
        service.submit(submit_doc("a"))
        service.drain()
        with pytest.raises(ValueError):
            service.evict("a")  # SUBMITTED, not running

    def test_evict_terminal_raises(self, service):
        service.submit(submit_doc("a", iterations=50))
        assert service.drain()
        with pytest.raises(ValueError):
            service.evict("a")  # FINISHED

    def test_evicted_job_requeues_and_finishes(self, service):
        service.pause()
        service.submit(submit_doc("a", iterations=4000))
        run_until_running(service, "a")

        seen = service.evict("a")
        assert seen == "RUNNING"
        service.resume()
        assert service.drain()
        assert service.lifecycle.state("a") is JobState.FINISHED

        # the journal shows the full detour: the eviction is the
        # RUNNING -> QUEUED hop, followed by the re-placement
        hops = [(frm, to) for _, frm, to, _ in service.store.transitions("a")]
        assert ("RUNNING", "QUEUED") in hops
        detour = hops.index(("RUNNING", "QUEUED"))
        assert hops[detour:] == [
            ("RUNNING", "QUEUED"),
            ("QUEUED", "PLACED"),
            ("PLACED", "RUNNING"),
            ("RUNNING", "FINISHED"),
        ]
        record = service.job_status("a")["record"]
        assert record["preemptions"] == 1
        assert record["finished_at"] is not None

    def test_eviction_counter_increments(self, service):
        service.pause()
        service.submit(submit_doc("a", iterations=4000))
        run_until_running(service, "a")
        service.evict("a")
        service.resume()
        assert service.drain()
        counter = service.telemetry.registry.get(
            "repro_service_evictions_total"
        )
        assert counter.value() == 1


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


class TestEvictHTTP:
    def test_post_evict_running_job(self, served):
        service, url = served
        service.pause()
        service.submit(submit_doc("a", iterations=4000))
        run_until_running(service, "a")

        code, doc = http("POST", f"{url}/evict", {"id": "a"})
        assert (code, doc) == (202, {"id": "a", "state": "RUNNING"})
        service.resume()
        assert service.drain()
        assert service.lifecycle.state("a") is JobState.FINISHED
        hops = [(frm, to) for _, frm, to, _ in service.store.transitions("a")]
        assert ("RUNNING", "QUEUED") in hops

    def test_post_evict_error_codes(self, served):
        service, url = served
        assert http("POST", f"{url}/evict", {"id": "ghost"})[0] == 404
        assert http("POST", f"{url}/evict", {})[0] == 400
        service.pause()
        service.submit(submit_doc("a"))
        service.drain()
        # SUBMITTED, not running: conflict
        assert http("POST", f"{url}/evict", {"id": "a"})[0] == 409

    @pytest.mark.parametrize("journal", [False, True])
    def test_explain_lists_the_eviction(self, tmp_path, journal):
        """``/explain/<id>`` keeps a job's evictions next to its
        decisions, also under FCFS, which writes no decision records."""
        svc = SchedulerService(
            cluster(2), "FCFS", store_path=str(tmp_path / "svc.db"),
            decision_journal=journal,
        )
        with svc, ServiceServer(svc) as server:
            svc.pause()
            svc.submit(submit_doc("a", iterations=4000))
            run_until_running(svc, "a")
            svc.evict("a")
            svc.resume()
            assert svc.drain()
            code, doc = http("GET", f"{server.url}/explain/a")
            assert http("GET", f"{server.url}/explain/ghost")[0] == 404
        assert code == 200
        (eviction,) = doc["decisions"]
        assert eviction["kind"] == "job" and eviction["job_id"] == "a"
        assert eviction["evict_reason"] == "preempt"
        assert eviction["state"] == "QUEUED"
