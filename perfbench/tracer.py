"""Span tracer that measures the program from outside.

The benchmark wraps the program's public functions with
:meth:`Tracer.wrap`; the program itself is not edited and its own
``repro.obs.trace`` spans stay off.  Every wrapped call becomes a span
with a name, start, end, parent span and an optional job or round id.
Aggregates (calls, total and self time, and a duration list for the
names whose tail is reported) are kept for every span; the span records
themselves are kept in memory up to ``keep_spans`` and written out by
:meth:`Tracer.dump` when the traced process ends.

Self time is a span's duration minus the time its child spans cover.
Spans nest per thread, so the daemon's HTTP threads and its scheduler
loop each keep their own stack.  GC pauses come from ``gc.callbacks``.
"""

from __future__ import annotations

import gc
import itertools
import json
import threading
import time

#: one clock for every process of a run: CLOCK_MONOTONIC is
#: system-wide, so stamps taken in the daemon and in the load generator
#: compare directly
clock = time.monotonic


class Tracer:
    def __init__(self, keep_spans: int = 150_000, tails=()) -> None:
        self.keep_spans = keep_spans
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._thread_stats: list[dict] = []
        self._thread_pairs: list[dict] = []
        #: (id, parent id, name, thread name, start, end, tag)
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.durations: dict[str, list[float]] = {n: [] for n in tails}
        self.gc_pauses: list[float] = []
        self._gc_start = 0.0

    # ------------------------------------------------------------------
    def _thread_state(self):
        local = self._local
        try:
            return local.stack, local.stats, local.pairs
        except AttributeError:
            local.stack = []
            local.stats = {}
            local.pairs = {}
            with self._lock:
                self._thread_stats.append(local.stats)
                self._thread_pairs.append(local.pairs)
            return local.stack, local.stats, local.pairs

    def wrap(self, owner, attr: str, name: str, tag=None) -> None:
        """Replace ``owner.attr`` with a function that records a span.

        ``tag(args, kwargs)`` optionally extracts the job or round id
        the span belongs to.
        """
        orig = getattr(owner, attr)
        tracer = self
        spans = self.spans
        durations = self.durations.get(name)

        def traced(*args, **kwargs):
            stack, stats, pairs = tracer._thread_state()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            frame = [span_id, name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[2] += dur
                    key = (parent[1], name)
                    pairs[key] = pairs.get(key, 0) + 1
                rec = stats.get(name)
                if rec is None:
                    rec = stats[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[2]
                if durations is not None:
                    durations.append(dur)
                if len(spans) < tracer.keep_spans:
                    spans.append((
                        span_id,
                        None if parent is None else parent[0],
                        name,
                        threading.current_thread().name,
                        start,
                        end,
                        None if tag is None else tag(args, kwargs),
                    ))
                else:
                    tracer.spans_dropped += 1

        traced.__wrapped__ = orig
        setattr(owner, attr, traced)

    # ------------------------------------------------------------------
    def install_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def remove_gc(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = clock()
        else:
            self.gc_pauses.append(clock() - self._gc_start)

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, list]:
        """name -> [calls, total_s, self_s] merged over threads."""
        out: dict[str, list] = {}
        with self._lock:
            per_thread = list(self._thread_stats)
        for stats in per_thread:
            for name, (calls, total, self_s) in list(stats.items()):
                rec = out.setdefault(name, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total
                rec[2] += self_s
        return out

    def pairs(self) -> dict[tuple[str, str], int]:
        """(parent name, child name) -> calls, merged over threads."""
        out: dict = {}
        with self._lock:
            per_thread = list(self._thread_pairs)
        for pairs in per_thread:
            for key, n in list(pairs.items()):
                out[key] = out.get(key, 0) + n
        return out

    def summary(self) -> dict:
        """JSON-ready aggregates: per-span stats, tails, pairs, GC."""
        return {
            "stats": self.stats(),
            "tails_ms": {
                name: percentile([d * 1e3 for d in durs], 99)
                for name, durs in self.durations.items()
            },
            "durations_ms": {
                name: [d * 1e3 for d in durs]
                for name, durs in self.durations.items()
            },
            "pairs": [[p, c, n] for (p, c), n in self.pairs().items()],
            "gc_pauses_ms": [p * 1e3 for p in self.gc_pauses],
            "spans_kept": len(self.spans),
            "spans_dropped": self.spans_dropped,
        }

    def dump(self, path) -> None:
        """Write every kept span, one JSON array per line."""
        with open(path, "w") as fh:
            fh.write(
                '# [id, parent, name, thread, start_s, end_s, tag]\n'
            )
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if not values:
        return 0.0
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)
