"""End-to-end tests for multi-node (spanning) jobs in the simulator.

The paper's future work -- "transparently scale learning applications
to multiple disaggregated GPUs across the cluster" -- is supported via
``single_node=False``: when no single machine fits, the placement
engine maps the job over a network-spanning pool.
"""

from repro.schedulers import make_scheduler
from repro.sim.engine import Simulator
from repro.sim.metrics import qos_slowdown
from repro.topology.builders import cluster

from tests.conftest import make_job


def spanning_scenario(spanner_batch: int = 128):
    """Leave one free GPU per machine, then submit a 2-GPU spanner.

    Two 3-GPU fillers consolidate one per machine, so the only way to
    get 2 GPUs is across the network.
    """
    return [
        make_job("fill-a", num_gpus=3, arrival_time=0.0, iterations=4000),
        make_job("fill-b", num_gpus=3, arrival_time=0.1, iterations=4000),
        make_job(
            "spanner",
            num_gpus=2,
            arrival_time=1.0,
            iterations=200,
            single_node=False,
            batch_size=spanner_batch,
            min_utility=0.0,
        ),
    ]


class TestSpanningJobs:
    def test_spanner_crosses_machines_when_needed(self):
        result = Simulator(
            cluster(2), make_scheduler("TOPO-AWARE-P"), spanning_scenario()
        ).run()
        rec = result.record_of("spanner")
        assert rec.finished_at is not None
        machines = {g.split("/")[0] for g in rec.gpus}
        assert machines == {"m0", "m1"}

    def test_spanner_prefers_one_machine_when_possible(self):
        jobs = [
            make_job("spanner", num_gpus=4, single_node=False, batch_size=128)
        ]
        result = Simulator(cluster(2), make_scheduler("TOPO-AWARE-P"), jobs).run()
        rec = result.record_of("spanner")
        machines = {g.split("/")[0] for g in rec.gpus}
        assert len(machines) == 1

    def test_single_node_twin_waits_instead(self):
        pinned = [
            j if j.job_id != "spanner" else make_job(
                "spanner", num_gpus=2, arrival_time=1.0, iterations=200,
                single_node=True, batch_size=128, min_utility=0.0,
            )
            for j in spanning_scenario()
        ]
        result = Simulator(cluster(2), make_scheduler("TOPO-AWARE-P"), pinned).run()
        rec = result.record_of("spanner")
        # must wait for a filler to release same-machine GPUs
        assert rec.waiting_time > 1.0
        machines = {g.split("/")[0] for g in rec.gpus}
        assert len(machines) == 1

    def test_spanning_costs_show_in_execution_time(self):
        """Crossing the network is slower than a machine-local run."""
        spanning = Simulator(
            cluster(2), make_scheduler("TOPO-AWARE-P"), spanning_scenario()
        ).run()
        rec = spanning.record_of("spanner")
        assert qos_slowdown(rec) > 0.0  # network hop vs ideal pack

    def test_communication_heavy_spanner_suffers_more(self):
        def run(batch):
            result = Simulator(
                cluster(2),
                make_scheduler("TOPO-AWARE"),
                spanning_scenario(spanner_batch=batch),
            ).run()
            return qos_slowdown(result.record_of("spanner"))

        assert run(1) > run(128)
