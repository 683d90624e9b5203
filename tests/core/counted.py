"""Counting helpers: a placement engine that counts what its
proposals pay for, and a call counter for any method.

Imported by ``tests/core/test_pool_solve_cache.py`` and the counted
gate in ``benchmarks/perf/test_decision_rounds.py``.  Production code
never builds it.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.placement import PlacementEngine


def count_calls(monkeypatch, cls, name: str) -> list:
    """Log one entry per call of ``cls.name`` (``"__init__"`` counts
    constructions) while the test runs."""
    calls = []
    original = getattr(cls, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


class _CountedLRU(OrderedDict):
    """The pool-solve LRU, counting lookups and hits of pool keys.
    Score keys (:meth:`PlacementEngine._score_key`) start with a tag
    string and are not counted."""

    def __init__(self) -> None:
        super().__init__()
        self.lookups = self.hits = 0

    def get(self, key, default=None):
        if not isinstance(key[0], str):
            self.lookups += 1
            self.hits += key in self
        return super().get(key, default)


class CountedEngine(PlacementEngine):
    """:class:`PlacementEngine` counting the pools its proposals scan,
    the distinct pool keys among them (per proposal) and the repeats of
    a key met earlier in the same proposal; ``_pool_solves.lookups``
    and ``.hits`` count the cache's side.  Every distinct key needs a
    lookup, so ``lookups == distinct_keys`` summed over a run means one
    lookup per distinct key in every proposal."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._pool_solves = _CountedLRU()
        self.pools_scanned = self.distinct_keys = self.repeats = 0
        self._met: set = set()

    def _propose(self, job, co_runners, provenance=None):
        self._met = set()
        return super()._propose(job, co_runners, provenance)

    def _pool_key(self, job, pool, co_runners):
        key = super()._pool_key(job, pool, co_runners)
        self.pools_scanned += 1
        if key in self._met:
            self.repeats += 1
        elif key is not None:
            self._met.add(key)
            self.distinct_keys += 1
        return key
