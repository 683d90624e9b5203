"""Property-based tests for simulator invariants."""

from hypothesis import given, settings, strategies as st

from repro.schedulers import make_scheduler
from repro.sim.engine import Simulator
from repro.topology.builders import power8_minsky
from repro.workload.job import Job, ModelType

MODELS = list(ModelType)


@st.composite
def job_streams(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    jobs = []
    t = 0.0
    for i in range(n):
        t += draw(st.floats(min_value=0.0, max_value=30.0, allow_nan=False))
        jobs.append(
            Job(
                job_id=f"j{i}",
                model=draw(st.sampled_from(MODELS)),
                batch_size=draw(st.sampled_from([1, 4, 32, 128])),
                num_gpus=draw(st.integers(min_value=1, max_value=4)),
                min_utility=draw(st.sampled_from([0.0, 0.3, 0.5])),
                arrival_time=t,
                iterations=draw(st.integers(min_value=10, max_value=200)),
            )
        )
    return jobs


SCHEDULERS = ["FCFS", "BF", "TOPO-AWARE", "TOPO-AWARE-P"]


@settings(max_examples=40, deadline=None)
@given(jobs=job_streams(), scheduler=st.sampled_from(SCHEDULERS))
def test_all_feasible_jobs_finish_in_causal_order(jobs, scheduler):
    """Invariants for any workload on any policy:

    * every job fitting the machine eventually finishes;
    * placement never precedes arrival, finish never precedes placement;
    * execution takes at least the interference-free solo time;
    * a job's GPUs never overlap with a concurrently running job's.
    """
    result = Simulator(power8_minsky(), make_scheduler(scheduler), jobs).run()
    intervals = []  # (start, end, gpus)
    for rec in result.records:
        if scheduler == "FCFS" and rec.finished_at is None:
            continue  # FIFO blocking may legitimately starve the tail
        assert rec.finished_at is not None, rec.job.job_id
        assert rec.placed_at >= rec.arrival - 1e-9
        assert rec.finished_at >= rec.placed_at
        assert rec.exec_time >= rec.solo_exec_time - 1e-6
        assert len(rec.gpus) == rec.job.num_gpus
        intervals.append((rec.placed_at, rec.finished_at, set(rec.gpus)))
    # GPU exclusivity across overlapping intervals
    for i, (s1, e1, g1) in enumerate(intervals):
        for s2, e2, g2 in intervals[i + 1 :]:
            if s1 < e2 - 1e-9 and s2 < e1 - 1e-9:  # time overlap
                assert not (g1 & g2)


@settings(max_examples=20, deadline=None)
@given(jobs=job_streams())
def test_qos_slowdown_never_negative(jobs):
    from repro.sim.metrics import qos_slowdown, total_slowdown

    result = Simulator(power8_minsky(), make_scheduler("TOPO-AWARE-P"), jobs).run()
    for rec in result.records:
        if rec.finished_at is not None:
            assert qos_slowdown(rec) >= 0.0
            assert total_slowdown(rec) >= qos_slowdown(rec) - 1e-9


@settings(max_examples=20, deadline=None)
@given(jobs=job_streams())
def test_simulation_is_deterministic(jobs):
    a = Simulator(power8_minsky(), make_scheduler("TOPO-AWARE-P"), jobs).run()
    b = Simulator(power8_minsky(), make_scheduler("TOPO-AWARE-P"), jobs).run()
    for ra, rb in zip(a.records, b.records):
        assert ra.placed_at == rb.placed_at
        assert ra.finished_at == rb.finished_at
        assert ra.gpus == rb.gpus
