"""Self-test of the benchmark at reduced size.

    python3 -m pytest perfbench/tests -q

Each workload must print every metric ``BENCHMARK.json`` names, with
its unit, and pass its correctness gate; a corrupted record digest or a
dropped journal hop must fail the run; without the program's source
the benchmark must exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: reduced sizes: 40-job simulations (digests pinned at the default
#: seed for these too), a 3-second daemon load
QUICK = {
    "fig11-batch": ["--jobs", "40", "--seconds", "1"],
    "pm-contended": ["--jobs", "40", "--seconds", "1"],
    "serve-live": ["--seconds", "3"],
}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(proc, spec_metrics) -> None:
    res = result(proc)
    expected = {m["name"]: m["unit"] for m in spec_metrics}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    report = {tuple(line.split()[::2]) for line in proc.stdout.splitlines()}
    for name, unit in expected.items():
        assert isinstance(res["metrics"][name]["value"], (int, float))
        assert (name, unit) in report, f"{name} not printed with {unit}"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    proc = bench("--workload", workload, "--seed", "1", "--trace", "0",
                 *QUICK[workload])
    assert proc.returncode == 0, proc.stderr
    res = result(proc)
    assert res["correct"] is True
    assert res["attempted"] >= 1 and res["failed"] == 0
    assert_metrics(proc, SPEC["end_to_end"])
    for name in res["metrics"]:
        assert res["metrics"][name]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric(workload):
    proc = bench("--workload", workload, "--seed", "1", "--trace", "1",
                 *QUICK[workload])
    assert proc.returncode == 0, proc.stderr
    assert result(proc)["correct"] is True
    assert_metrics(proc, SPEC["per_layer"])


def test_corrupted_record_digest_fails_the_run():
    proc = bench("--workload", "pm-contended", "--seed", "1",
                 "--inject", "digest", *QUICK["pm-contended"])
    assert proc.returncode == 1
    assert result(proc)["correct"] is False
    assert "CHECK FAILED" in proc.stdout and "record digest" in proc.stdout


def test_dropped_journal_hop_fails_the_run():
    proc = bench("--workload", "serve-live", "--seed", "1",
                 "--inject", "journal-hop", *QUICK["serve-live"])
    assert proc.returncode == 1
    res = result(proc)
    assert res["correct"] is False and res["failed"] >= 1
    assert "journal path" in proc.stdout


def test_without_program_source_exits_without_result(tmp_path):
    shutil.copytree(
        BENCH, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "fig11-batch", "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_the_code():
    sys.path.insert(0, str(BENCH))
    import layers
    import run

    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        layers.PER_LAYER
    assert WORKLOADS == list(run.WORKLOADS)
