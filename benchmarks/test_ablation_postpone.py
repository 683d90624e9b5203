"""Ablation: the TOPO-AWARE-P postponement policy.

Constructs the situation Figure 8 hinges on: when a communication-heavy
2-GPU job arrives, only a cross-socket GPU pair is free.  TOPO-AWARE
places it immediately (no P2P); TOPO-AWARE-P postpones until a socket
pair frees up, trading queue time for a faster run -- and wins overall.
"""

from repro.schedulers import make_scheduler
from repro.sim.engine import Simulator
from repro.topology.builders import power8_minsky
from repro.workload.job import Job, ModelType


def adversarial_jobs():
    """Two 1-GPU anchors on different sockets, then a P2P-hungry pair job."""
    return [
        Job("short-anchor", ModelType.ALEXNET, 1, 1, arrival_time=0.0,
            iterations=800),  # ~60 s on socket 0
        Job("long-anchor", ModelType.ALEXNET, 1, 1, arrival_time=1.0,
            iterations=4000),  # ~300 s on socket 1
        Job("pair", ModelType.ALEXNET, 1, 2, min_utility=0.5,
            arrival_time=5.0, iterations=1500),
    ]


def run_both():
    out = {}
    for name in ("TOPO-AWARE", "TOPO-AWARE-P"):
        sim = Simulator(power8_minsky(), make_scheduler(name), adversarial_jobs())
        out[name] = sim.run()
    return out


def test_ablation_postpone(benchmark, write_result):
    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    lines = []
    for name, result in results.items():
        rec = result.record_of("pair")
        lines.append(
            f"{name:<14} pair: placed={rec.placed_at:7.1f}s "
            f"exec={rec.exec_time:7.1f}s p2p={rec.p2p} "
            f"finished={rec.finished_at:7.1f}s utility={rec.utility:.2f}"
        )
    write_result("ablation_postpone", "\n".join(lines))

    eager = results["TOPO-AWARE"].record_of("pair")
    patient = results["TOPO-AWARE-P"].record_of("pair")
    # the eager policy takes the cross-socket pair immediately
    assert not eager.p2p
    assert eager.placed_at < patient.placed_at
    # the postponing policy waits for P2P and runs much faster
    assert patient.p2p
    assert patient.exec_time < eager.exec_time / 1.15
    # ... and even finishes earlier despite waiting
    assert patient.finished_at <= eager.finished_at + 1e-6
