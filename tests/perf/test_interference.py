"""Tests for the co-location interference model (Figure 6 anchors)."""

import pytest

from repro.perf.interference import (
    InterferenceModel,
    SHARING_REF,
    pairwise_slowdown,
    pressure,
    sensitivity,
)
from repro.perf.calibration import DEFAULT_CALIBRATION
from repro.topology.allocation import AllocationState
from repro.topology.builders import power8_minsky
from repro.workload.job import BatchClass, Job, ModelType

from tests.conftest import make_job


def alex(batch: int, job_id: str = "j") -> Job:
    return Job(job_id, ModelType.ALEXNET, batch, 2)


class TestPairwiseSlowdown:
    def test_fig6_tiny_tiny_anchor(self):
        """Two tiny AlexNet jobs: ~30% slowdown at reference sharing."""
        s = pairwise_slowdown(alex(1), alex(1), sharing=SHARING_REF)
        assert s == pytest.approx(0.30, abs=0.03)

    def test_fig6_big_aggressor_tiny_victim_anchor(self):
        """Tiny victim of a big-batch job: ~24%."""
        s = pairwise_slowdown(alex(1), alex(128), sharing=SHARING_REF)
        assert s == pytest.approx(0.24, abs=0.03)

    def test_fig6_big_aggressor_small_victim_anchor(self):
        """Small victim of a big-batch job: ~21%."""
        s = pairwise_slowdown(alex(4), alex(128), sharing=SHARING_REF)
        assert s == pytest.approx(0.21, abs=0.03)

    def test_fig6_big_big_near_zero(self):
        s = pairwise_slowdown(alex(128), alex(128), sharing=SHARING_REF)
        assert s < 0.05

    def test_slowdown_scales_with_sharing(self):
        full = pairwise_slowdown(alex(1), alex(1), sharing=SHARING_REF)
        half = pairwise_slowdown(alex(1), alex(1), sharing=SHARING_REF / 2)
        assert half == pytest.approx(full / 2)

    def test_sharing_saturates_at_reference(self):
        at_ref = pairwise_slowdown(alex(1), alex(1), sharing=SHARING_REF)
        above = pairwise_slowdown(alex(1), alex(1), sharing=1.0)
        assert above == pytest.approx(at_ref)

    def test_invalid_sharing_rejected(self):
        with pytest.raises(ValueError):
            pairwise_slowdown(alex(1), alex(1), sharing=1.5)

    def test_googlenet_suffers_far_less(self):
        goog = Job("g", ModelType.GOOGLENET, 1, 2)
        assert pairwise_slowdown(goog, alex(1), 1.0) < 0.3 * pairwise_slowdown(
            alex(1), alex(1), 1.0
        )

    def test_googlenet_perturbs_far_less(self):
        goog = Job("g", ModelType.GOOGLENET, 1, 2)
        assert pairwise_slowdown(alex(1), goog, 1.0) < 0.3 * pairwise_slowdown(
            alex(1), alex(1), 1.0
        )


class TestCoefficients:
    def test_sensitivity_bounded(self):
        for m in ModelType:
            for bc in BatchClass:
                assert 0.0 <= sensitivity(DEFAULT_CALIBRATION, m, bc) <= 1.0
                assert 0.0 <= pressure(DEFAULT_CALIBRATION, m, bc) <= 1.0

    def test_alexnet_sensitivity_matches_table(self):
        assert sensitivity(
            DEFAULT_CALIBRATION, ModelType.ALEXNET, BatchClass.TINY
        ) == pytest.approx(0.62)


class TestInterferenceModel:
    def _setup(self):
        topo = power8_minsky()
        alloc = AllocationState(topo)
        return topo, alloc, InterferenceModel(topo)

    def test_no_co_runners_no_slowdown(self):
        topo, alloc, model = self._setup()
        job = make_job()
        gpus = frozenset(["m0/gpu0", "m0/gpu1"])
        assert model.slowdown_factor(job, gpus, {}, alloc) == 1.0

    def test_disjoint_sockets_no_slowdown(self):
        topo, alloc, model = self._setup()
        other = make_job("other")
        alloc.allocate("other", ["m0/gpu2", "m0/gpu3"])
        co = {"other": (other, frozenset(["m0/gpu2", "m0/gpu3"]))}
        job = make_job("j")
        factor = model.slowdown_factor(
            job, frozenset(["m0/gpu0", "m0/gpu1"]), co, alloc
        )
        assert factor == 1.0

    def test_interleaved_placement_slows_down(self):
        topo, alloc, model = self._setup()
        other = make_job("other", batch_size=1)
        alloc.allocate("other", ["m0/gpu1", "m0/gpu3"])
        co = {"other": (other, frozenset(["m0/gpu1", "m0/gpu3"]))}
        job = make_job("j", batch_size=1)
        factor = model.slowdown_factor(
            job, frozenset(["m0/gpu0", "m0/gpu2"]), co, alloc
        )
        assert factor > 1.2  # ~Fig 6 tiny+tiny

    def test_eq4_averages_both_directions(self):
        topo, alloc, model = self._setup()
        other = make_job("other", batch_size=128)
        alloc.allocate("other", ["m0/gpu1", "m0/gpu3"])
        co = {"other": (other, frozenset(["m0/gpu1", "m0/gpu3"]))}
        job = make_job("j", batch_size=1)
        eq4 = model.eq4_interference(job, ["m0/gpu0", "m0/gpu2"], co, alloc)
        mine = model.slowdown_factor(
            job, frozenset(["m0/gpu0", "m0/gpu2"]), co, alloc
        )
        assert 1.0 < eq4 < mine  # the big job suffers less than I do

    def test_eq4_builds_the_neighbour_list_once(self, monkeypatch):
        """One ``_nearby`` list serves both directions, and the terms
        are summed in the same order as before: the scored job's own
        slowdown, then each co-runner's in sorted id order."""
        topo, alloc, model = self._setup()
        gpus = frozenset(["m0/gpu0", "m0/gpu2"])
        co = {}
        for job_id, batch, held in (("b", 128, ["m0/gpu3"]), ("a", 1, ["m0/gpu1"])):
            alloc.allocate(job_id, held)
            co[job_id] = (make_job(job_id, batch_size=batch, num_gpus=1),
                          frozenset(held))
        job = make_job("j", batch_size=1)
        co["j"] = (job, gpus)
        terms = [model.slowdown_factor(job, gpus, co, alloc)] + [
            1.0 + pairwise_slowdown(
                co[i][0], job, alloc.link_sharing_factor(co[i][1], gpus)
            )
            for i in ("a", "b")
        ]
        calls = []
        nearby = InterferenceModel._nearby

        def counted(self, *args):
            calls.append(1)
            return nearby(self, *args)

        monkeypatch.setattr(InterferenceModel, "_nearby", counted)
        assert model.eq4_interference(job, gpus, co, alloc) == sum(terms) / 3
        assert len(calls) == 1

    def test_collocation_pair_slowdown_asymmetry(self):
        topo, alloc, model = self._setup()
        a, b = alex(1, "a"), alex(128, "b")
        ga, gb = ["m0/gpu0", "m0/gpu2"], ["m0/gpu1", "m0/gpu3"]
        alloc.allocate("a", ga)
        alloc.allocate("b", gb)
        slow_a, slow_b = model.collocation_pair_slowdown(a, ga, b, gb, alloc)
        assert slow_a > slow_b  # the tiny job is the victim

    def test_remote_jobs_ignored(self):
        from repro.topology.builders import cluster

        topo = cluster(2)
        alloc = AllocationState(topo)
        model = InterferenceModel(topo)
        other = make_job("other", batch_size=1)
        alloc.allocate("other", ["m1/gpu0", "m1/gpu1"])
        co = {"other": (other, frozenset(["m1/gpu0", "m1/gpu1"]))}
        factor = model.slowdown_factor(
            make_job("j"), frozenset(["m0/gpu0", "m0/gpu1"]), co, alloc
        )
        assert factor == 1.0
