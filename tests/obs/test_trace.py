"""Span recorder semantics, activation seam, and trace summaries."""

import json

import pytest

from repro.obs import trace as trace_mod
from repro.obs.provenance import DecisionRecorder, read_records, records_of
from repro.obs.trace import (
    NULL_SPAN,
    SpanRecorder,
    recording,
    span,
    summarize,
)


class FakeClock:
    """Deterministic clock: each reading advances by ``step``."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


class TestDisabledPath:
    def test_span_is_noop_without_recorder(self):
        assert trace_mod.ACTIVE is None
        sp = span("anything", key="value")
        assert sp is NULL_SPAN
        with sp as inner:
            assert inner.set(more="attrs") is inner

    def test_instrumented_code_runs_clean_when_disabled(self):
        from repro.core.fm import fm_bipartition

        result = fm_bipartition("abcd", {}, validate=False)
        assert set(result.side0) | set(result.side1) == set("abcd")


class TestRecorder:
    def test_nesting_builds_parent_links(self):
        rec = SpanRecorder(clock=FakeClock())
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        outer, inner = rec.spans
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id

    def test_deterministic_durations_with_injected_clock(self):
        rec = SpanRecorder(clock=FakeClock(step=1.0))
        # creation consumes t=0; span start consumes t=1; close t=2
        with rec.span("only"):
            pass
        (sp,) = rec.spans
        assert sp.start_s == 1.0
        assert sp.dur_s == 1.0

    def test_siblings_share_parent(self):
        rec = SpanRecorder(clock=FakeClock())
        with rec.span("root"):
            with rec.span("a"):
                pass
            with rec.span("b"):
                pass
        root, a, b = rec.spans
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id

    def test_set_merges_attrs(self):
        rec = SpanRecorder(clock=FakeClock())
        with rec.span("s", a=1) as sp:
            sp.set(b=2)
        assert rec.spans[0].attrs == {"a": 1, "b": 2}


class TestActivation:
    def test_recording_installs_and_restores(self):
        assert trace_mod.ACTIVE is None
        with recording() as rec:
            assert trace_mod.ACTIVE is rec
            with span("traced"):
                pass
        assert trace_mod.ACTIVE is None
        assert [s.name for s in rec.spans] == ["traced"]

    def test_recording_restores_previous_recorder(self):
        with recording() as outer_rec:
            with recording() as inner_rec:
                assert trace_mod.ACTIVE is inner_rec
            assert trace_mod.ACTIVE is outer_rec
        assert outer_rec is not inner_rec

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with recording():
                raise RuntimeError("boom")
        assert trace_mod.ACTIVE is None


class TestSerialization:
    """Spans reach a file through the decision recorder's journal."""

    def test_jsonl_round_trip(self, tmp_path):
        rec = DecisionRecorder(journal=True)
        rec.on_decision_round(0.0, [], 0, 0.0)  # spans below run in round 1
        with recording(rec):
            with span("outer", job_id="job0"):
                with span("inner", n=4):
                    pass
        path = rec.write_journal(tmp_path / "records.jsonl")
        spans = records_of("span", read_records(path))
        # journaled as they close: the child first
        assert [s["name"] for s in spans] == ["inner", "outer"]
        inner, outer = spans
        assert inner["parent_id"] == outer["span_id"]
        assert inner["attrs"] == {"n": 4}
        assert {s["round"] for s in spans} == {1}
        assert inner["seq"] < outer["seq"]

    def test_read_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"schema": 42, "seq": 1, "kind": "span"}\n')
        with pytest.raises(ValueError, match="unsupported record schema"):
            read_records(path)

    def test_spans_never_enter_the_ring(self):
        rec = DecisionRecorder(ring_size=2, journal=True)
        with recording(rec):
            for _ in range(5):
                with span("sched.propose"):
                    pass
        assert rec.entries_after(0) == [] and rec.last_seq == 0
        assert len(rec.journal) == 5

    def test_round_wall_time_only_while_capturing_spans(self):
        """A journal with spans carries each round's ``elapsed_s``; one
        without stays deterministic, so it carries none."""
        rec = DecisionRecorder(journal=True)
        rec.on_decision_round(1.0, [], 0, 0.25)
        with recording(rec):
            rec.on_decision_round(2.0, [], 0, 0.5)
        first, second = records_of("round", map(json.loads, rec.journal))
        assert "elapsed_s" not in first
        assert second["elapsed_s"] == 0.5

    def test_no_journal_drops_spans(self):
        rec = DecisionRecorder()
        with recording(rec):
            with span("sched.propose"):
                pass
        assert rec.entries_after(0) == []


class TestSummarize:
    def _trace_for(self, outcome="placed"):
        rec = SpanRecorder(clock=FakeClock(step=0.001))
        with rec.span(
            "sched.propose", job_id="job0", scheduler="TOPO-AWARE-P",
            num_gpus=2, queued=1,
        ) as root:
            with rec.span("drb.map", job_id="job0", tasks=2, pool=4):
                with rec.span("fm.bipartition", n=4) as fm:
                    fm.set(passes=2, cut=1.5, gain=0.5)
            with rec.span("utility.evaluate", job_id="job0", gpus=2) as ev:
                ev.set(utility=0.9)
            root.set(utility=0.9, p2p=True, outcome=outcome)
        return [s.to_dict() for s in rec.spans]

    def test_per_job_timeline(self):
        text = summarize(self._trace_for())
        assert "=== job0" in text
        assert "TOPO-AWARE-P" in text
        assert "drb.map" in text
        assert "fm.bipartition" in text
        assert "fm_cut_min=1.5" in text
        assert "chosen_utility=0.9" in text
        assert "final_outcome=placed" in text

    def test_job_filter(self):
        text = summarize(self._trace_for(), job_id="nope")
        assert "no scheduler decision spans" in text

    def test_empty_trace(self):
        assert "no scheduler decision spans" in summarize([])
