"""Load sweep: where does topology-awareness pay off?

The paper evaluates two operating points; this sweep varies the
arrival rate over a 5-machine cluster and shows the TOPO-AWARE-P
advantage is present across the load range and never harmful --
at low load every policy finds good placements (machines are empty),
under pressure the greedy policies start splitting jobs.
"""

from repro.analysis.sweep import (
    format_sweep,
    mean_qos_metric,
    series,
    sweep,
)
from repro.topology.builders import cluster
from repro.workload.generator import GeneratorConfig, WorkloadGenerator

RATES = (1.0, 2.5, 4.0)


def scenario(rate: float):
    cfg = GeneratorConfig(arrival_rate_per_min=rate)
    jobs = WorkloadGenerator(cfg, seed=21).generate(80)
    return (lambda: cluster(5)), jobs


def run_sweep():
    return sweep(RATES, scenario)


def test_load_sweep(benchmark, write_result):
    points = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    write_result(
        "load_sweep",
        format_sweep(points, mean_qos_metric, knob_name="jobs/min"),
    )

    qos = series(points, mean_qos_metric)
    # topology-awareness never loses to the greedy baselines at any load
    for i in range(len(RATES)):
        assert qos["TOPO-AWARE-P"][i] <= qos["BF"][i] + 1e-9
    # ... and the absolute gap grows (or at least persists) with load
    gaps = [
        qos["BF"][i] - qos["TOPO-AWARE-P"][i] for i in range(len(RATES))
    ]
    assert max(gaps) == max(gaps[1:], default=gaps[0])  # peak not at min load
    # under real pressure the gap is material
    assert gaps[-1] > 0.005 or gaps[-2] > 0.005
