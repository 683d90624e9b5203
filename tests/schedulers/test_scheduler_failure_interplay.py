"""Interplay between scheduling policies and failure injection."""

from repro.schedulers import make_scheduler
from repro.sim.engine import MachineFailure, Simulator
from repro.topology.builders import cluster

from tests.conftest import make_job


class TestPostponementDuringOutage:
    def test_postponed_job_placed_after_recovery(self):
        """A P2P-requiring job whose only P2P option is on the failed
        machine must keep postponing until recovery, then place there."""
        topo_factory = lambda: cluster(2)
        jobs = [
            # occupy one GPU in each socket of m1 -> m1 offers no P2P pair
            make_job("frag-a", num_gpus=1, arrival_time=0.0, iterations=3000),
            make_job("frag-b", num_gpus=1, arrival_time=0.1, iterations=3000),
            # the P2P-hungry pair job arrives while m0 is down
            make_job("pair", num_gpus=2, batch_size=1, min_utility=0.5,
                     arrival_time=10.0, iterations=200),
        ]

        # fail m0 before anything arrives so the fragments are forced
        # onto m1's two sockets (the engine spreads them there), then
        # recover m0 in time for the pair job
        sim = Simulator(
            topo_factory(),
            make_scheduler("TOPO-AWARE-P"),
            jobs,
            failures=[MachineFailure("m0", at_time=0.0, duration_s=60.0)],
        )
        result = sim.run()
        pair = result.record_of("pair")
        assert pair.p2p
        assert pair.placed_at >= 60.0  # had to wait for m0's recovery
        assert {g.split("/")[0] for g in pair.gpus} == {"m0"}

    def test_backfill_estimates_survive_failures(self):
        """EASY backfilling keeps estimated-end bookkeeping consistent
        when jobs die and are resubmitted."""
        jobs = [
            make_job(f"j{i}", num_gpus=2, arrival_time=float(i), iterations=400)
            for i in range(6)
        ]
        sim = Simulator(
            cluster(2),
            make_scheduler("EASY-BACKFILL"),
            jobs,
            failures=[MachineFailure("m0", at_time=20.0, duration_s=100.0)],
        )
        result = sim.run()
        assert all(r.finished_at is not None for r in result.records)

    def test_sjf_reorders_restarted_jobs(self):
        """A restarted job re-enters SJF's duration ordering normally."""
        jobs = [
            make_job("long", num_gpus=2, arrival_time=0.0, iterations=3000),
            make_job("short", num_gpus=2, arrival_time=1.0, iterations=100),
        ]
        sim = Simulator(
            cluster(1),
            make_scheduler("SJF"),
            jobs,
            failures=[MachineFailure("m0", at_time=5.0, duration_s=30.0)],
        )
        result = sim.run()
        assert all(r.finished_at is not None for r in result.records)
        # both were killed by the outage; the short one goes first after
        # recovery under SJF
        short = result.record_of("short")
        long = result.record_of("long")
        assert short.restarts >= 0 and long.restarts == 1
        assert short.finished_at < long.finished_at
