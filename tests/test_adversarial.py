"""The Theorem 4.6 adversarial lower-bound suite.

The paper proves no deterministic half-space-pruning discovery
algorithm can guarantee ``MSO < D``; :mod:`repro.arena.adversarial`
builds that proof's constructive workload.  These tests pin the
construction empirically: SpillBound and AlignedBound land on
``MSO >= D`` (exactly ``D`` here — flat surface, rotated spill
orders) at D = 2, 3, 4, stay within their proven ``D^2 + 3D``
ceilings, rebuild bit-identically from the same seed, and produce
zero conformance violations while doing it.
"""

import numpy as np
import pytest

from repro.arena.adversarial import (
    FAMILY_DIMS,
    AdversarialESS,
    adversarial_knobs,
    build_adversarial_instance,
)
from repro.conformance.monitors import ConformanceMonitor
from repro.conformance.workloads import (
    WORKLOAD_FAMILIES,
    build_conformance_instance,
)
from repro.core.aligned_bound import AlignedBound
from repro.core.mso import evaluate_algorithm
from repro.core.plan_bouquet import PlanBouquet
from repro.core.spill_bound import SpillBound
from repro.errors import ReproError

pytestmark = pytest.mark.conformance

DIMS = (2, 3, 4)


def _instance(num_dims, resolution=5, scale=100.0):
    return build_adversarial_instance(
        seed=0, num_dims=num_dims, resolution=resolution, scale=scale)


class TestLowerBound:
    """The acceptance criterion: MSO >= D, within ceilings, clean."""

    @pytest.mark.parametrize("num_dims", DIMS)
    @pytest.mark.parametrize("label,cls", [("sb", SpillBound),
                                           ("ab", AlignedBound)])
    def test_mso_at_least_d_within_ceiling(self, num_dims, label, cls):
        instance = _instance(num_dims)
        algorithm = cls(instance.ess, instance.contours)
        monitor = ConformanceMonitor()
        evaluation = evaluate_algorithm(algorithm, engine="loop")
        monitor.check_sweep(evaluation.suboptimality, algorithm,
                            engine=evaluation.engine)
        assert evaluation.mso >= num_dims - 1e-9, (
            f"{label} beat the Theorem 4.6 lower bound at D={num_dims}")
        assert evaluation.mso <= algorithm.mso_guarantee() * (1 + 1e-9)
        # The construction is tight: every location costs exactly D * C.
        assert np.allclose(evaluation.suboptimality, num_dims)
        assert monitor.ok, monitor.violations

    @pytest.mark.parametrize("num_dims", DIMS)
    def test_traced_runs_conform(self, num_dims):
        instance = _instance(num_dims)
        monitor = ConformanceMonitor()
        last = instance.ess.grid.num_points - 1
        for cls in (SpillBound, AlignedBound, PlanBouquet):
            algorithm = cls(instance.ess, instance.contours)
            for flat in (0, last // 2, last):
                result = algorithm.run(flat, trace=True)
                monitor.check_run(result, algorithm, engine="loop")
        assert monitor.ok, monitor.violations

    def test_pb_is_outside_the_halfspace_class(self):
        # PlanBouquet covers the single flat contour with one plan and
        # sub-optimality 1 everywhere: the lower bound binds only the
        # half-space-pruning algorithms, and the construction shows it.
        instance = _instance(3)
        evaluation = evaluate_algorithm(
            PlanBouquet(instance.ess, instance.contours), engine="loop")
        assert np.allclose(evaluation.suboptimality, 1.0)


class TestConstruction:
    def test_single_flat_contour(self):
        for num_dims in DIMS:
            instance = _instance(num_dims, scale=250.0)
            assert len(instance.contours.budgets) == 1
            assert np.allclose(instance.contours.budgets, 250.0)
            assert np.allclose(instance.ess.optimal_cost, 250.0)

    def test_rotated_spill_orders_cover_every_dim(self):
        ess = _instance(4).ess
        for pid in range(4):
            order = ess.spill_order(pid)
            assert sorted(order) == [0, 1, 2, 3]
            assert order[0] == pid

    def test_every_residue_in_every_slice(self):
        # plan_ids = sum(coords) mod D puts every plan in every axis
        # slice, so each dimension has spillers at its extreme.
        ess = _instance(3, resolution=5).ess
        ids = np.asarray(ess.plan_ids).reshape(5, 5, 5)
        for axis in range(3):
            for k in range(5):
                sl = np.take(ids, k, axis=axis)
                assert set(np.unique(sl)) == {0, 1, 2}

    def test_validation_errors(self):
        with pytest.raises(ReproError, match="D >= 2"):
            AdversarialESS(1, 5, 100.0)
        with pytest.raises(ReproError, match="positive"):
            AdversarialESS(2, 5, 0.0)
        with pytest.raises(ReproError, match="plan id"):
            _instance(2).ess.plan_cost_array(99)


class TestSeededFamily:
    def test_knobs_deterministic(self):
        for seed in range(12):
            knobs = adversarial_knobs(seed)
            assert knobs == adversarial_knobs(seed)
            num_dims, resolution, scale = knobs
            assert num_dims in FAMILY_DIMS
            assert 5 <= resolution <= 7
            assert 50.0 <= scale <= 500.0

    def test_seeded_roundtrip_bit_identical(self):
        a = build_adversarial_instance(seed=7)
        b = build_adversarial_instance(seed=7)
        assert a.name == b.name
        assert np.array_equal(a.ess.optimal_cost, b.ess.optimal_cost)
        assert np.array_equal(a.ess.plan_ids, b.ess.plan_ids)
        assert np.array_equal(a.contours.budgets, b.contours.budgets)
        assert a.ess.plan_keys == b.ess.plan_keys

    def test_registry_family_routes_here(self):
        assert "adversarial" in WORKLOAD_FAMILIES
        instance = build_conformance_instance(2, family="adversarial")
        assert isinstance(instance.ess, AdversarialESS)
        twin = build_adversarial_instance(seed=2)
        assert np.array_equal(instance.ess.plan_ids, twin.ess.plan_ids)

    def test_unknown_family_rejected(self):
        with pytest.raises(ReproError, match="family"):
            build_conformance_instance(0, family="bogus")

    def test_engine_bit_identity(self):
        instance = _instance(3)
        loop = evaluate_algorithm(
            SpillBound(instance.ess, instance.contours), engine="loop")
        for engine in ("batch", "parallel"):
            other = evaluate_algorithm(
                SpillBound(instance.ess, instance.contours), workers=2,
                engine=engine)
            assert np.array_equal(loop.suboptimality, other.suboptimality)
