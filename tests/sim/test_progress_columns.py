"""Columnar progress burn-down is exact.

``ClusterState`` keeps every running job's ``remaining`` and ``rate``
in the float64 columns of a :class:`~repro.sim.cluster.RunningTable`
and advances them with one ``remaining -= dt * rate``.  These tests
drive random interleavings of start, finish, preempt, cancel, machine
failure, rate changes and ``advance_to`` against a scalar reference
that applies the per-job loop to plain Python floats, and require
every value to match with ``==`` and to read as a Python ``float``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim.cluster import ClusterState, RunningJob, RunningTable
from repro.topology.builders import cluster

from tests.conftest import make_job

SUBNORMAL = 5e-324
HUGE_DT = 1e300

_rate = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
)
_dt = st.one_of(
    st.just(SUBNORMAL),
    st.just(HUGE_DT),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
_pick = st.integers(0, 63)
_op = st.one_of(
    st.tuples(st.just("start"), st.booleans(),
              st.floats(min_value=0.0, max_value=1e6, allow_nan=False)),
    st.tuples(st.just("rate"), _pick, _rate),
    st.tuples(st.just("advance"), _dt),
    st.tuples(st.just("finish"), _pick),
    st.tuples(st.just("cancel"), _pick),
    st.tuples(st.just("preempt"), _pick),
    st.tuples(st.just("fail"), st.integers(0, 3)),
)


def _check(state: ClusterState, ref: dict, gone: list) -> None:
    assert list(state.running) == list(ref)
    for job_id, (remaining, rate) in ref.items():
        run = state.running[job_id]
        assert type(run.remaining) is float and type(run.rate) is float
        assert run.remaining == remaining, job_id
        assert run.rate == rate, job_id
    for run, remaining, rate in gone:
        assert type(run.remaining) is float and type(run.rate) is float
        assert run.remaining == remaining and run.rate == rate


def _detached(ref, gone, runs) -> None:
    for run in runs:
        remaining, rate = ref.pop(run.job.job_id)
        gone.append((run, remaining, rate))


def _replay(ops) -> None:
    """Apply ``ops`` to a 16-GPU cluster and to the scalar reference."""
    state = ClusterState(cluster(4))
    ref: dict[str, list[float]] = {}  # the scalar loop's view
    gone: list[tuple[RunningJob, float, float]] = []
    serial = 0
    for op in ops:
        kind, ids = op[0], list(ref)
        if kind == "start":
            _, by_hand, remaining = op
            free = state.alloc.free_gpus()
            if not free:
                continue
            serial += 1
            job = make_job(f"j{serial}", num_gpus=1, iterations=10)
            if by_hand:
                state.alloc.allocate(job.job_id, free[:1])
                state.running[job.job_id] = RunningJob(
                    job=job, gpus=frozenset(free[:1]), remaining=remaining,
                    rate=1.0, solo=remaining,
                )
            else:
                solution = state.engine.propose(job)
                state.engine.enforce(solution)
                state.start(job, solution)
            run = state.running[job.job_id]
            ref[job.job_id] = [run.remaining, run.rate]
        elif kind == "advance":
            t = state.now + op[1]
            dt = t - state.now
            state.advance_to(t)
            if dt > 0:
                for values in ref.values():
                    values[0] -= dt * values[1]
        elif kind == "fail":
            machine = f"m{op[1]}"
            victims, _ = state.fail_machine(machine)
            state.recover_machine(machine)
            _detached(ref, gone, victims)
        elif ids:
            job_id = ids[op[1] % len(ids)]
            if kind == "rate":
                state.running[job_id].rate = op[2]
                ref[job_id][1] = op[2]
            elif kind == "finish":
                state.running[job_id].remaining = 0.0
                ref[job_id][0] = 0.0
                run, _ = state.finish(job_id)
                _detached(ref, gone, [run])
            else:
                run, _ = getattr(state, kind)(job_id)
                _detached(ref, gone, [run])
        _check(state, ref, gone)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(_op, max_size=40))
# a slot swap: the last job moves into the first one's freed slot
@example([("start", False, 0.0), ("start", True, 50.0), ("start", True, 7.5),
          ("rate", 1, 0.3), ("rate", 2, 0.7), ("advance", 3.25),
          ("cancel", 0), ("advance", 1.5), ("preempt", 1), ("advance", 2.0)])
# the last slot itself leaves (no swap), then a freed slot is reused
@example([("start", True, 10.0), ("start", True, 20.0), ("finish", 1),
          ("start", True, 30.0), ("advance", 0.5), ("cancel", 0),
          ("advance", 0.25)])
@example([("start", True, 1.0), ("rate", 0, 0.0), ("advance", HUGE_DT),
          ("start", False, 0.0), ("rate", 1, 1e-300), ("advance", HUGE_DT)])
@example([("start", True, 1e-300), ("rate", 0, 0.9999999999999999),
          ("advance", SUBNORMAL), ("advance", 1e-310), ("advance", 0.0)])
# machine failure takes several slots at once, including the last
@example([("start", False, 0.0), ("start", False, 0.0), ("start", True, 4.0),
          ("rate", 0, 0.5), ("advance", 2.0), ("fail", 0), ("advance", 1.0)])
def test_columns_match_the_scalar_loop(ops):
    _replay(ops)


def test_table_grows_past_its_initial_capacity():
    table = RunningTable()
    ref = {}
    for i in range(300):
        run = RunningJob(job=make_job(f"j{i}"), gpus=frozenset(),
                         remaining=100.0 + i / 7, rate=1.0 / (1 + i % 5))
        table[f"j{i}"] = run
        ref[f"j{i}"] = [run.remaining, run.rate]
    table.burn(0.1)
    for i in range(0, 300, 3):
        run = table.pop(f"j{i}")
        remaining, rate = ref.pop(f"j{i}")
        assert (run.remaining, run.rate) == (remaining - 0.1 * rate, rate)
    table.burn(3.3)
    for job_id, (remaining, rate) in ref.items():
        assert table[job_id].remaining == (remaining - 0.1 * rate) - 3.3 * rate


def test_reassigning_an_id_detaches_the_old_run():
    table = RunningTable()
    old = RunningJob(job=make_job(), gpus=frozenset(), remaining=5.0, rate=0.5)
    new = RunningJob(job=make_job(), gpus=frozenset(), remaining=9.0, rate=1.0)
    table["j"] = old
    table.burn(2.0)
    table["j"] = new
    table.burn(1.0)
    assert (old.remaining, old.rate) == (4.0, 0.5)
    assert table["j"].remaining == 8.0
    with pytest.raises(ValueError):
        RunningTable()["k"] = new  # a run lives in one table at a time


def test_values_written_as_numpy_scalars_read_back_as_float():
    table = RunningTable()
    run = RunningJob(job=make_job(), gpus=frozenset(), remaining=1.0, rate=1.0)
    table["j"] = run
    run.rate = np.float64(0.25)
    run.remaining = np.float64(3.0)
    assert type(run.rate) is float and type(run.remaining) is float
    del table["j"]
    assert type(run.rate) is float and (run.remaining, run.rate) == (3.0, 0.25)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda t: t.popitem(),
        lambda t: t.setdefault("x", None),
        lambda t: t.update(x=None),
        lambda t: t.clear(),
    ],
)
def test_bulk_mutators_cannot_bypass_the_columns(mutate):
    table = RunningTable()
    table["j"] = RunningJob(job=make_job(), gpus=frozenset(), remaining=1.0,
                            rate=1.0)
    with pytest.raises(TypeError):
        mutate(table)
    assert list(table) == ["j"]
