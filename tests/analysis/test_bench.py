"""Tests for the decision-round bench harness and ``repro bench``."""

from __future__ import annotations

import json

import pytest

from repro.analysis.bench import (
    BenchResult,
    check_equivalence,
    compare_to_baseline,
    format_bench,
    run_bench,
    write_bench,
)
from repro.cli import main


@pytest.fixture(scope="module")
def tiny_bench():
    return run_bench(
        "fig10",
        n_jobs=12,
        n_machines=2,
        schedulers=("FCFS", "TOPO-AWARE"),
        repeats=1,
    )


class TestRunBench:
    def test_rows_carry_timing_and_memo_stats(self, tiny_bench):
        assert set(tiny_bench.schedulers) == {"FCFS", "TOPO-AWARE"}
        for row in tiny_bench.schedulers.values():
            assert row["decision_rounds"] > 0
            assert row["decision_time_s"] >= 0.0
            assert row["mean_decision_time_s"] >= 0.0
            assert set(row["placement_stats"]) == {
                "hits",
                "misses",
                "invalidations",
                "hit_rate",
            }

    def test_equivalence_verified_by_default(self, tiny_bench):
        assert tiny_bench.equivalence is not None
        assert tiny_bench.equivalence["identical"] is True
        assert tiny_bench.equivalence["fastpath_off_identical"] is True

    def test_fastpath_section_reports_speedup_and_stats(self, tiny_bench):
        fp = tiny_bench.fastpath
        assert fp is not None and fp["scheduler"] == "TOPO-AWARE"
        assert fp["fast_mean_decision_time_s"] > 0.0
        assert fp["off_mean_decision_time_s"] > 0.0
        assert fp["speedup_vs_off"] == pytest.approx(
            fp["off_mean_decision_time_s"] / fp["fast_mean_decision_time_s"]
        )
        assert fp["prefilter_stats"]["calls"] > 0
        # no external seed measurement was injected
        assert "speedup_vs_seed" not in fp

    def test_seed_baseline_recorded_verbatim(self):
        bench = run_bench(
            "fig10",
            n_jobs=12,
            n_machines=2,
            schedulers=("TOPO-AWARE",),
            repeats=1,
            verify=False,
            seed_baseline_s=1.0,
        )
        fp = bench.fastpath
        assert fp["seed_mean_decision_time_s"] == 1.0
        assert fp["speedup_vs_seed"] == pytest.approx(
            1.0 / fp["fast_mean_decision_time_s"]
        )

    def test_fig10_equivalence_has_nonzero_memo_hits(self):
        # full Fig. 10 scale: cross-epoch identity keying must actually
        # replay entries (the pool recurs, e.g. empty cluster between
        # bursts) while staying bit-identical to the cold engine
        from repro.analysis.scenarios import scenario1_jobs

        eq = check_equivalence(scenario1_jobs(100, seed=42), 5)
        assert eq["identical"] is True
        assert eq["memo_stats"]["hits"] > 0

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="unknown scale"):
            run_bench("fig99")

    def test_bad_repeats_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            run_bench("fig10", n_jobs=1, n_machines=1, repeats=0)

    def test_format_is_a_table(self, tiny_bench):
        text = format_bench(tiny_bench)
        assert "bench fig10: 12 jobs / 2 machines" in text
        assert "TOPO-AWARE" in text
        assert "equivalence (TOPO-AWARE, memo vs cold): OK" in text


class TestArtifactAndBaseline:
    def test_write_round_trip(self, tiny_bench, tmp_path):
        path = write_bench(tiny_bench, tmp_path / "BENCH_test.json")
        data = json.loads(path.read_text())
        assert data["bench"] == "fig10"
        assert data["n_jobs"] == 12
        assert "TOPO-AWARE" in data["schedulers"]
        assert data["equivalence"]["identical"] is True

    def test_baseline_within_budget(self, tiny_bench, tmp_path):
        baseline = write_bench(tiny_bench, tmp_path / "base.json")
        assert compare_to_baseline(tiny_bench, baseline) == []

    def test_baseline_regression_detected(self, tiny_bench, tmp_path):
        data = json.loads(json.dumps(tiny_bench.as_dict()))
        for row in data["schedulers"].values():
            row["mean_decision_time_s"] = 1e-12  # impossibly fast baseline
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps(data))
        failures = compare_to_baseline(tiny_bench, baseline, threshold=3.0)
        assert failures and all("exceeds" in f for f in failures)

    def test_unknown_baseline_schedulers_ignored(self, tiny_bench, tmp_path):
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps({"schedulers": {"OTHER": {}}}))
        assert compare_to_baseline(tiny_bench, baseline) == []

    def test_equivalence_failure_reported(self, tmp_path):
        bench = BenchResult(scale="fig10", n_jobs=1, n_machines=1, repeats=1)
        bench.equivalence = {"scheduler": "TOPO-AWARE", "identical": False}
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps({"schedulers": {}}))
        failures = compare_to_baseline(bench, baseline)
        assert any("equivalence" in f for f in failures)

    def test_fastpath_matrix_failure_reported(self, tmp_path):
        bench = BenchResult(scale="fig11", n_jobs=1, n_machines=1, repeats=1)
        bench.equivalence = {
            "scheduler": "TOPO-AWARE",
            "identical": True,
            "fastpath_off_identical": False,
        }
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps({"schedulers": {}}))
        failures = compare_to_baseline(bench, baseline)
        assert any("exhaustive host scan" in f for f in failures)

    def test_min_speedup_floor(self, tiny_bench, tmp_path):
        baseline = write_bench(tiny_bench, tmp_path / "base.json")
        measured = tiny_bench.fastpath["speedup_vs_off"]
        assert compare_to_baseline(
            tiny_bench, baseline, min_speedup=measured * 0.5
        ) == []
        failures = compare_to_baseline(
            tiny_bench, baseline, min_speedup=measured * 100
        )
        assert failures and any("speedup" in f for f in failures)


class TestBenchCommand:
    def test_quick_smoke(self, capsys, tmp_path):
        out_path = tmp_path / "BENCH_quick.json"
        code = main(
            ["bench", "--quick", "--jobs", "12", "--machines", "2",
             "--out", str(out_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bench fig10" in out and "memo vs cold" in out
        assert out_path.exists()

    def test_check_against_passes_itself(self, capsys, tmp_path):
        base = tmp_path / "base.json"
        assert main(
            ["bench", "--quick", "--jobs", "12", "--machines", "2",
             "--out", str(base)]
        ) == 0
        capsys.readouterr()
        code = main(
            ["bench", "--quick", "--jobs", "12", "--machines", "2",
             "--check-against", str(base), "--threshold", "25"]
        )
        assert code == 0
        assert "within 25.0x" in capsys.readouterr().out

    def test_check_against_fails_on_regression(self, capsys, tmp_path):
        base = tmp_path / "base.json"
        data = {
            "schedulers": {
                "FCFS": {"mean_decision_time_s": 1e-12},
                "TOPO-AWARE": {"mean_decision_time_s": 1e-12},
            }
        }
        base.write_text(json.dumps(data))
        code = main(
            ["bench", "--quick", "--jobs", "12", "--machines", "2",
             "--check-against", str(base)]
        )
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().err
