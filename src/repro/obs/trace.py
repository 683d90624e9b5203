"""Span-based tracing for the scheduler's hot decision path.

Trace points live inside :mod:`repro.schedulers.topo` (per-job DRB
invocation), :mod:`repro.core.drb` (recursion shape),
:mod:`repro.core.fm` (passes / cut) and :mod:`repro.core.utility`
(Eq. 1–5 term breakdown).  They are written as::

    with span("drb.map", job_id=..., tasks=...) as sp:
        ...
        sp.set(extra_attr=...)

``span()`` consults the module-level :data:`ACTIVE` recorder.  When no
recorder is installed — the default — it returns a shared no-op span
(:data:`NULL_SPAN`), so the uninstrumented path costs one global read,
one ``is None`` test and a discarded kwargs dict; the overhead
benchmark (``benchmarks/test_obs_overhead.py``) pins this below 3 % of
a Scenario 1 run.  Tracing therefore never perturbs simulation
results; the golden-equivalence tests run with and without a recorder.

Spans nest via an explicit stack in the recorder (parent ids) and
carry a wall-clock start offset and duration from an injectable
``clock`` callable.  Any object with a ``span(name, **attrs)`` method
can be installed as the sink: a :class:`SpanRecorder` keeps its spans
in memory, and the decision flight recorder
(:class:`repro.obs.provenance.DecisionRecorder`) journals each closed
span as a ``span`` record next to the decisions it timed.
``summarize`` renders the per-job decision timeline the ``repro trace
summarize`` subcommand prints from those records.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Sequence


class Span:
    """One recorded span: name, timing, attributes, tree links."""

    __slots__ = ("name", "span_id", "parent_id", "start_s", "dur_s", "attrs",
                 "_recorder")

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: int | None,
        start_s: float,
        attrs: dict,
        recorder: "SpanRecorder | None" = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_s = start_s
        self.dur_s = 0.0
        self.attrs = attrs
        self._recorder = recorder

    def set(self, **attrs) -> "Span":
        """Attach attributes discovered while the span is open."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._recorder is not None:
            self._recorder._close(self)
        return False

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "dur_s": self.dur_s,
            "attrs": self.attrs,
        }


class _NullSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def set(self, **attrs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class SpanRecorder:
    """Collects a span tree; one instance per traced run.

    ``clock`` is any monotonic float-returning callable
    (``time.perf_counter`` by default; tests inject deterministic
    counters).  Start offsets are relative to recorder creation so
    recorded traces are small and comparable.  Spans are kept in
    ``spans`` in opening order; a subclass may keep them elsewhere by
    overriding :meth:`_keep` and :meth:`_close`.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._t0 = clock()
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 1

    def span(self, name: str, **attrs) -> Span:
        span = Span(
            name,
            span_id=self._next_id,
            parent_id=self._stack[-1] if self._stack else None,
            start_s=self.clock() - self._t0,
            attrs=attrs,
            recorder=self,
        )
        self._next_id += 1
        self._stack.append(span.span_id)
        self._keep(span)
        return span

    def _keep(self, span: Span) -> None:
        self.spans.append(span)

    def _close(self, span: Span) -> None:
        span.dur_s = self.clock() - self._t0 - span.start_s
        # tolerate mis-nested exits: pop back to this span
        while self._stack:
            top = self._stack.pop()
            if top == span.span_id:
                break


# ---------------------------------------------------------------------------
# module-level activation (the hot-path seam)
# ---------------------------------------------------------------------------

#: the installed span sink (anything with ``span(name, **attrs)``:
#: a SpanRecorder or a DecisionRecorder), or None (tracing disabled)
ACTIVE = None


def span(name: str, **attrs) -> Span | _NullSpan:
    """Open a span on the active recorder, or a no-op when disabled."""
    recorder = ACTIVE
    if recorder is None:
        return NULL_SPAN
    return recorder.span(name, **attrs)


def install(recorder) -> None:
    """Install (or, with ``None``, remove) the process-wide span sink."""
    global ACTIVE
    ACTIVE = recorder


class recording:
    """Context manager: trace everything inside the block.

    ::

        with recording() as rec:
            sim.run()
        rec.spans  # every span, in opening order

    ``recording(decision_recorder)`` sends the spans to a decision
    flight recorder's journal instead.
    """

    def __init__(self, recorder=None,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.recorder = recorder or SpanRecorder(clock=clock)
        self._previous = None

    def __enter__(self):
        self._previous = ACTIVE
        install(self.recorder)
        return self.recorder

    def __exit__(self, exc_type, exc, tb) -> bool:
        install(self._previous)
        return False


# ---------------------------------------------------------------------------
# summarising
# ---------------------------------------------------------------------------

def _children_index(spans: Sequence[dict]) -> dict[int | None, list[dict]]:
    children: dict[int | None, list[dict]] = {}
    for span in spans:
        children.setdefault(span.get("parent_id"), []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: (s["start_s"], s["span_id"]))
    return children


def _fmt_attrs(attrs: dict, skip: tuple[str, ...] = ()) -> str:
    parts = []
    for key in sorted(attrs):
        if key in skip:
            continue
        value = attrs[key]
        if isinstance(value, float):
            parts.append(f"{key}={value:.4g}")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def _render_tree(span: dict, children: dict, lines: list[str], depth: int) -> None:
    indent = "  " * depth
    lines.append(
        f"{indent}{span['name']:<{max(2, 24 - 2 * depth)}} "
        f"{span['dur_s'] * 1e3:>9.3f} ms  "
        f"{_fmt_attrs(span['attrs'], skip=('job_id', 'scheduler'))}".rstrip()
    )
    for child in children.get(span["span_id"], ()):
        _render_tree(child, children, lines, depth + 1)


def summarize(spans: Sequence[dict], job_id: str | None = None) -> str:
    """Per-job decision timeline: the ``repro trace summarize`` body.

    Groups the scheduler's per-job root spans (``sched.propose``) by
    job, prints each decision round's span tree with durations, the
    chosen utility and outcome, and a per-job rollup of FM invocations
    and cut weights.
    """
    roots = [s for s in spans if s["name"] == "sched.propose"]
    if job_id is not None:
        roots = [s for s in roots if s["attrs"].get("job_id") == job_id]
    if not roots:
        scope = f" for job {job_id!r}" if job_id else ""
        return f"(no scheduler decision spans{scope} in trace)"
    children = _children_index(spans)

    def descendants(span: dict) -> Iterable[dict]:
        for child in children.get(span["span_id"], ()):
            yield child
            yield from descendants(child)

    by_job: dict[str, list[dict]] = {}
    for root in roots:
        by_job.setdefault(root["attrs"].get("job_id", "?"), []).append(root)

    lines: list[str] = []
    for jid in sorted(by_job):
        rounds = by_job[jid]
        scheduler = rounds[0]["attrs"].get("scheduler", "")
        header = f"=== {jid}" + (f"  [{scheduler}]" if scheduler else "")
        lines.append(header)
        fm_cuts: list[float] = []
        utilities: list[float] = []
        for i, root in enumerate(rounds):
            lines.append(f"  decision round {i + 1}/{len(rounds)} "
                         f"at +{root['start_s']:.6f}s:")
            sub: list[str] = []
            _render_tree(root, children, sub, depth=2)
            lines.extend(sub)
            for desc in descendants(root):
                if desc["name"] == "fm.bipartition" and "cut" in desc["attrs"]:
                    fm_cuts.append(desc["attrs"]["cut"])
            if "utility" in root["attrs"]:
                utilities.append(root["attrs"]["utility"])
        rollup = [f"rounds={len(rounds)}", f"fm_calls={len(fm_cuts)}"]
        if fm_cuts:
            rollup.append(f"fm_cut_min={min(fm_cuts):.4g}")
            rollup.append(f"fm_cut_max={max(fm_cuts):.4g}")
        if utilities:
            rollup.append(f"chosen_utility={utilities[-1]:.4g}")
        outcome = rounds[-1]["attrs"].get("outcome")
        if outcome:
            rollup.append(f"final_outcome={outcome}")
        lines.append("  rollup: " + " ".join(rollup))
        lines.append("")
    return "\n".join(lines).rstrip()
