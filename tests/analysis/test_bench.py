"""Decision-round runs checked against the record contract of
:mod:`repro.analysis.bench`.

Small Fig. 10-shaped runs (Scenario-1 jobs) carry the timing and memo
statistics the decision-round gates read, and the memo-disabled and
exhaustive-scan references reproduce them under
:func:`first_record_difference`.  The timed gates themselves are in
``benchmarks/perf/test_decision_rounds.py``.
"""

from __future__ import annotations

import pytest

from repro.analysis.bench import first_record_difference
from repro.analysis.scenarios import scenario1_jobs
from repro.schedulers import make_scheduler
from repro.sim.cluster import ClusterState
from repro.sim.engine import Simulator
from repro.topology.builders import cluster

from tests.core.exhaustive import exhaustive_cluster


def _run(jobs, n_machines, scheduler_name, *, memo_size=None, exhaustive=False):
    topo = cluster(n_machines)
    state = exhaustive_cluster(topo) if exhaustive else ClusterState(topo)
    if memo_size is not None:
        state.engine.memo_size = memo_size
    sim = Simulator(topo, make_scheduler(scheduler_name), list(jobs), cluster=state)
    return sim.run()


@pytest.fixture(scope="module")
def tiny_runs():
    jobs = scenario1_jobs(12, seed=42)
    return {
        "FCFS": _run(jobs, 2, "FCFS"),
        "TOPO-AWARE": _run(jobs, 2, "TOPO-AWARE"),
        "cold": _run(jobs, 2, "TOPO-AWARE", memo_size=0),
        "exhaustive": _run(jobs, 2, "TOPO-AWARE", exhaustive=True),
    }


class TestRunBench:
    def test_rows_carry_timing_and_memo_stats(self, tiny_runs):
        for name in ("FCFS", "TOPO-AWARE"):
            result = tiny_runs[name]
            assert result.decision_rounds > 0
            assert result.decision_time_s >= 0.0
            assert 0.0 <= result.mean_decision_time_s <= result.decision_time_s
            assert set(result.placement_stats) == {
                "hits",
                "misses",
                "invalidations",
                "hit_rate",
            }

    def test_equivalence_verified_by_default(self, tiny_runs):
        memo = tiny_runs["TOPO-AWARE"]
        assert first_record_difference(memo, tiny_runs["cold"]) is None
        assert first_record_difference(memo, tiny_runs["exhaustive"]) is None

    def test_fastpath_section_reports_speedup_and_stats(self, tiny_runs):
        # the two sides of the speedup floor both time their rounds; only
        # the production engine consults the prefilter
        fast, off = tiny_runs["TOPO-AWARE"], tiny_runs["exhaustive"]
        assert fast.mean_decision_time_s > 0.0
        assert off.mean_decision_time_s > 0.0
        assert fast.prefilter_stats["calls"] > 0
        assert off.prefilter_stats["calls"] == 0

    def test_fig10_equivalence_has_nonzero_memo_hits(self):
        # full Fig. 10 scale: cross-epoch identity keying must actually
        # replay entries (the pool recurs, e.g. empty cluster between
        # bursts) while staying bit-identical to the exhaustive scan
        jobs = scenario1_jobs(100, seed=42)
        memo = _run(jobs, 5, "TOPO-AWARE")
        off = _run(jobs, 5, "TOPO-AWARE", exhaustive=True)
        assert first_record_difference(memo, off) is None
        assert memo.placement_stats["hits"] > 0
