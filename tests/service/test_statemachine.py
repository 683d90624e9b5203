"""Job state machine: the full legal/illegal transition matrix."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.service.statemachine import (
    JobState,
    LifecycleTable,
    TRANSITIONS,
    TransitionError,
)

ALL_STATES = list(JobState)
TERMINAL = {JobState.FINISHED, JobState.CANCELLED, JobState.FAILED}


class TestTransitionMatrix:
    """Every (from, to) pair, exhaustively: 7 x 7 = 49 cases."""

    @pytest.mark.parametrize(
        "frm,to", list(itertools.product(ALL_STATES, ALL_STATES))
    )
    def test_every_pair_matches_the_table(self, frm, to):
        table = LifecycleTable()
        table.create("j", state=frm)
        if to in TRANSITIONS[frm]:
            assert table.advance("j", to) is frm
            assert table.state("j") is to
        else:
            with pytest.raises(TransitionError) as exc:
                table.advance("j", to)
            assert exc.value.job_id == "j"
            assert exc.value.frm is frm
            assert exc.value.to is to
            # rejected transitions leave the state untouched
            assert table.state("j") is frm

    def test_table_covers_every_state(self):
        assert set(TRANSITIONS) == set(JobState)

    def test_terminal_states_have_no_exits(self):
        for state in TERMINAL:
            assert state.terminal
            assert TRANSITIONS[state] == frozenset()
        for state in set(JobState) - TERMINAL:
            assert not state.terminal
            assert TRANSITIONS[state]

    def test_happy_path_reaches_finished(self):
        table = LifecycleTable()
        table.create("j")
        for to in (
            JobState.QUEUED,
            JobState.PLACED,
            JobState.RUNNING,
            JobState.FINISHED,
        ):
            table.advance("j", to)
        assert table.state("j") is JobState.FINISHED

    def test_failure_requeue_loop(self):
        """RUNNING -> QUEUED (machine failure) -> place again."""
        table = LifecycleTable()
        table.create("j", state=JobState.RUNNING)
        table.advance("j", JobState.QUEUED)
        table.advance("j", JobState.PLACED)
        table.advance("j", JobState.RUNNING)
        table.advance("j", JobState.FINISHED)


class TestLifecycleTable:
    def test_create_duplicate_raises(self):
        table = LifecycleTable()
        table.create("j")
        with pytest.raises(ValueError):
            table.create("j")

    def test_advance_unknown_job_raises_keyerror(self):
        with pytest.raises(KeyError):
            LifecycleTable().advance("ghost", JobState.QUEUED)

    def test_advance_if_is_a_noop_when_illegal(self):
        table = LifecycleTable()
        table.create("j", state=JobState.FINISHED)
        assert not table.advance_if("j", JobState.RUNNING)
        assert table.state("j") is JobState.FINISHED
        assert not table.advance_if("ghost", JobState.QUEUED)

    def test_journal_sees_only_accepted_mutations(self):
        rows = []
        table = LifecycleTable(journal=lambda j, f, t: rows.append((j, f, t)))
        table.create("j")
        table.advance("j", JobState.QUEUED)
        with pytest.raises(TransitionError):
            table.advance("j", JobState.FINISHED)
        assert not table.advance_if("j", JobState.RUNNING)
        table.advance_if("j", JobState.PLACED)
        assert rows == [
            ("j", None, JobState.SUBMITTED),
            ("j", JobState.SUBMITTED, JobState.QUEUED),
            ("j", JobState.QUEUED, JobState.PLACED),
        ]

    def test_counts_include_zero_states(self):
        table = LifecycleTable()
        table.create("a")
        table.create("b", state=JobState.FINISHED)
        counts = table.counts()
        assert set(counts) == {s.value for s in JobState}
        assert counts["SUBMITTED"] == 1
        assert counts["FINISHED"] == 1
        assert counts["RUNNING"] == 0

    def test_table_rows_sorted_and_contains(self):
        table = LifecycleTable()
        table.create("b")
        table.create("a", state=JobState.QUEUED)
        assert table.table() == (("a", "QUEUED"), ("b", "SUBMITTED"))
        assert "a" in table and "ghost" not in table


# "ghost" is never created, so every hop on it exercises the unknown-id
# branches; the other ids are created at most once each
_op = st.tuples(
    st.sampled_from(["create", "advance", "advance_if"]),
    st.sampled_from(["a", "b", "c", "ghost"]),
    st.sampled_from(ALL_STATES),
)


def _recount(table: LifecycleTable) -> dict[str, int]:
    found = Counter(state for _, state in table.table())
    return {s.value: found[s.value] for s in JobState}


class TestBookkeeping:
    """``counts()`` is kept incrementally and reads return copies."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(_op, max_size=40))
    def test_counts_match_a_recount_after_every_operation(self, ops):
        table = LifecycleTable()
        model: dict[str, JobState] = {}
        for kind, job_id, to in ops:
            if kind == "create":
                if job_id == "ghost":
                    continue
                if job_id in model:
                    with pytest.raises(ValueError):
                        table.create(job_id, state=to)
                else:
                    table.create(job_id, state=to)
                    model[job_id] = to
            elif kind == "advance":
                frm = model.get(job_id)
                if frm is None:
                    with pytest.raises(KeyError):
                        table.advance(job_id, to)
                elif to not in TRANSITIONS[frm]:
                    with pytest.raises(TransitionError):
                        table.advance(job_id, to)
                else:
                    assert table.advance(job_id, to) is frm
                    model[job_id] = to
            else:
                frm = model.get(job_id)
                legal = frm is not None and to in TRANSITIONS[frm]
                assert table.advance_if(job_id, to) is legal
                if legal:
                    model[job_id] = to

            counts = table.counts()
            assert counts == _recount(table)
            assert list(counts) == [s.value for s in JobState]
            states = table.states()
            assert states == model
            assert list(states) == list(model)  # insertion order
            rows = table.table()
            assert rows == tuple(
                (j, s.value) for j, s in sorted(model.items())
            )
            # every read is a private copy
            counts[JobState.SUBMITTED.value] += 1
            states["ghost"] = JobState.QUEUED
            states.clear()
            assert table.counts() == _recount(table)
            assert table.states() == model
            assert table.table() == rows
