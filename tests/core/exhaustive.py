"""The exhaustive host scan: the reference the top-k candidate
prefilter is checked and timed against.

Imported by ``tests/core/test_constraints.py``,
``tests/sim/test_fastpath_equivalence.py`` and the decision-round
gates in ``benchmarks/perf/test_decision_rounds.py``.  Production
code never builds it, so :class:`PlacementEngine` has one scan.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.constraints import CandidatePool, CandidatePrefilter, filter_hosts
from repro.core.placement import PlacementEngine
from repro.sim.cluster import ClusterState
from repro.workload.job import Job


class ExhaustiveHostEngine(PlacementEngine):
    """:class:`PlacementEngine` scanning every host, without the top-k
    prefilter.  Everything else — memo, pool-solve cache, DRB — is the
    production engine's."""

    def _candidate_pools(
        self,
        job: Job,
        co_runners: Mapping[str, tuple[Job, frozenset[str]]],
        report: dict | None,
        prefilter: CandidatePrefilter,
    ) -> list[CandidatePool]:
        return filter_hosts(
            self.topo, self.alloc, job, co_runners, self.profiles,
            report=report,
        )


def exhaustive_cluster(topo) -> ClusterState:
    """A :class:`ClusterState` whose engine is an
    :class:`ExhaustiveHostEngine`."""
    state = ClusterState(topo)
    state.engine = ExhaustiveHostEngine(
        topo, state.alloc, state.params, state.engine.profiles,
        state.interference,
    )
    return state
