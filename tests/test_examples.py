"""Smoke tests: every shipped example must run and tell its story."""

import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "Placement: ('m0/gpu0', 'm0/gpu1')" in out
        assert "CUDA_VISIBLE_DEVICES=0,1" in out
        assert "speedup" in out.lower()

    def test_cloud_scheduling_sim(self):
        out = run_example("cloud_scheduling_sim.py")
        assert "TOPO-AWARE-P" in out
        assert "Best policy by makespan" in out

    def test_prototype_from_configs(self):
        out = run_example("prototype_from_configs.py")
        assert "speedup over" in out
        assert "caffe train" in out
        # the headline factor is printed with the paper reference
        assert "paper: ~1.30x" in out

    def test_custom_topology(self):
        out = run_example("custom_topology.py")
        assert "round-trips: True" in out
        assert "mp-pipeline" in out

    def test_model_parallel_pipeline(self):
        out = run_example("model_parallel_pipeline.py")
        assert "model-parallel-chain" in out
        assert "p2p=True" in out

    def test_production_features(self):
        out = run_example("production_features.py")
        assert "restarted" in out
        assert "Pod spec" in out
        assert "AlexNet batch 12" in out

    def test_telemetry_tour(self):
        out = run_example("telemetry_tour.py")
        assert "repro_jobs_finished_total" in out
        assert "Record journal" in out
        assert "job job0 -> QUEUED" in out and "job job0 -> FINISHED" in out
        assert "decision time: sched.propose" in out
        assert "=== job0" in out and "sched.propose" in out
        assert "final_outcome=placed" in out

    def test_paper_figures(self):
        out = run_example("paper_figures.py")
        for marker in (
            "Figure 3",
            "Figure 4",
            "Figure 5",
            "Figure 6",
            "Figure 8",
            "Figure 10",
            "Figure 11",
            "scheduler decision overhead",
        ):
            assert marker in out
