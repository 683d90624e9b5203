"""Reference loop that scales timings to one machine speed.

This benchmark shares its machine: the CPU time of one fixed simulation
varied by 12% within a minute, and the median of a 30 s run drifted by
as much from run to run, while the program did the same work.  Every
measured program process therefore also times this fixed pure-Python
loop (dicts, tuples, a heap, sorting, float arithmetic; no program
code) right before and after its measured phase, and the timing
metrics are reported at the speed at which the loop takes
``REFERENCE_MS``:

    reported = measured * REFERENCE_MS / loop CPU time

A slower program moves the measured time but not the loop's, so a
regression shows in full; a slower machine moves both.  The loop's CPU
time, not its wall time, is the divisor: over six runs of a batch
workload it tracked CPU per job and round latency to within 2-3%, the
wall time to within 3-4%.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
import time

#: the loop's time on the machine the bounds were set on
REFERENCE_MS = 35.0


def reference_loop() -> tuple[float, float]:
    """Run the fixed loop once; returns (cpu ms, wall ms).

    The cyclic GC is off while it runs: its allocations would otherwise
    trigger collections that walk the whole heap of the measured
    process, and the loop would time that heap instead of the machine.
    """
    rng = random.Random(7)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _timed_loop(rng)
    finally:
        if gc_was_enabled:
            gc.enable()


def _timed_loop(rng: random.Random) -> tuple[float, float]:
    cpu0, wall0 = time.process_time(), time.perf_counter()
    # ten small rounds rather than one big one: the loop must not raise
    # the measured process's peak resident memory
    for _ in range(10):
        table: dict = {}
        heap: list = []
        for i in range(2000):
            key = (rng.random(), i % 97)
            table[key] = table.get(key, 0.0) + i * 0.5
            heapq.heappush(heap, (key[0], i))
        ordered = sorted(table.items())
        while heap:
            heapq.heappop(heap)
        del ordered
    return (
        (time.process_time() - cpu0) * 1e3,
        (time.perf_counter() - wall0) * 1e3,
    )


def reference_loops(n: int) -> list[float]:
    """Mean (cpu ms, wall ms) of ``n`` runs of :func:`reference_loop`."""
    runs = [reference_loop() for _ in range(n)]
    return [statistics.fmean(r[i] for r in runs) for i in (0, 1)]
