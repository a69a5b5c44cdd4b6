"""Tests for the frontier-batched sweep engine (repro.perf.batch).

The engine's contract is *bit-identity* with the per-location reference
loop — every comparison here is ``np.array_equal``, never a tolerance.
"""

import numpy as np
import pytest

from repro import AlignedBound, ContourSet, ESS, ESSGrid, PlanBouquet, SpillBound
from repro.core.mso import evaluate_algorithm
from repro.obs.metrics import REGISTRY
from repro.perf.batch import batched_suboptimality
from tests.conftest import make_star_query


def _loop_reference(algorithm, flats):
    """The scalar walk, point by point — the engine's ground truth."""
    return np.array(
        [algorithm.run(int(f)).suboptimality for f in flats], dtype=float
    )


@pytest.fixture(scope="module")
def star4_ess():
    query = make_star_query(4)
    grid = ESSGrid(4, resolution=6, sel_min=1e-6)
    return ESS.build(query, grid)


@pytest.fixture(scope="module")
def star4_contours(star4_ess):
    return ContourSet(star4_ess)


class TestBitIdentity2D:
    @pytest.mark.parametrize("fixture", ["toy_pb", "toy_sb", "toy_ab"])
    def test_full_grid(self, request, fixture):
        algorithm = request.getfixturevalue(fixture)
        batched = batched_suboptimality(algorithm)
        loop = _loop_reference(algorithm,
                               range(algorithm.ess.grid.num_points))
        assert batched is not None
        assert np.array_equal(batched, loop)


class TestBitIdentity3D:
    @pytest.mark.parametrize("cls", [PlanBouquet, SpillBound, AlignedBound])
    def test_full_grid(self, star_ess, star_contours, cls):
        algorithm = cls(star_ess, star_contours)
        batched = batched_suboptimality(algorithm)
        loop = _loop_reference(algorithm, range(star_ess.grid.num_points))
        assert np.array_equal(batched, loop)

    @pytest.mark.parametrize("cls", [PlanBouquet, SpillBound, AlignedBound])
    @pytest.mark.parametrize("cost_ratio", [1.37, 2.93, 4.51])
    def test_randomized_cost_ratios(self, star_ess, cls, cost_ratio):
        contours = ContourSet(star_ess, cost_ratio=cost_ratio)
        algorithm = cls(star_ess, contours)
        flats = np.random.default_rng(17).choice(
            star_ess.grid.num_points, size=128, replace=False
        )
        batched = batched_suboptimality(algorithm, flats)
        loop = _loop_reference(cls(star_ess, contours), flats)
        assert np.array_equal(batched, loop)


class TestBitIdentity4D:
    @pytest.mark.parametrize("cls", [PlanBouquet, SpillBound, AlignedBound])
    def test_sampled_locations(self, star4_ess, star4_contours, cls):
        algorithm = cls(star4_ess, star4_contours)
        full = batched_suboptimality(algorithm)
        flats = np.random.default_rng(4).choice(
            star4_ess.grid.num_points, size=150, replace=False
        )
        loop = _loop_reference(cls(star4_ess, star4_contours), flats)
        assert np.array_equal(full[flats], loop)


class TestPointsInput:
    def test_duplicates_and_order_preserved(self, toy_sb):
        points = [7, 7, 0, 63, 12, 7, 399]
        batched = batched_suboptimality(toy_sb, points)
        loop = _loop_reference(toy_sb, points)
        assert np.array_equal(batched, loop)
        assert batched[0] == batched[1] == batched[5]

    def test_empty_points(self, toy_sb):
        out = batched_suboptimality(toy_sb, [])
        assert out.shape == (0,)

    def test_restricted_matches_full(self, toy_ab):
        full = batched_suboptimality(toy_ab)
        points = [3, 99, 250]
        restricted = batched_suboptimality(toy_ab, points)
        assert np.array_equal(restricted, full[points])


class TestSideEffects:
    def test_ab_observed_max_penalty_parity(self, star_ess, star_contours):
        loop_ab = AlignedBound(star_ess, star_contours)
        _loop_reference(loop_ab, range(star_ess.grid.num_points))
        batch_ab = AlignedBound(star_ess, star_contours)
        batched_suboptimality(batch_ab)
        assert loop_ab.observed_max_penalty == batch_ab.observed_max_penalty


class TestCoverageGate:
    def test_subclasses_fall_back_to_loop(self, toy_ess, toy_contours):
        from repro.ess.dependence import (
            CorrelatedSpillBound,
            CorrelationSpec,
        )

        algo = CorrelatedSpillBound(
            toy_ess, [CorrelationSpec(0, 1, 0.3)], toy_contours
        )
        assert batched_suboptimality(algo) is None

    def test_timers_counters(self, toy_sb):
        REGISTRY.reset()
        batched_suboptimality(toy_sb, [1, 2, 3])
        assert REGISTRY.counter("batched_sweeps") == 1
        assert REGISTRY.counter("batched_sweep_points") == 3
        assert REGISTRY.counter("batched_sweep_states") >= 1


class TestEvaluateAlgorithmEngines:
    @pytest.mark.parametrize("cls", [PlanBouquet, SpillBound, AlignedBound])
    def test_engines_agree(self, star_ess, star_contours, cls):
        loop = evaluate_algorithm(cls(star_ess, star_contours),
                                  engine="loop")
        batch = evaluate_algorithm(cls(star_ess, star_contours),
                                   engine="batch")
        assert np.array_equal(loop.suboptimality, batch.suboptimality)
        assert loop.mso == batch.mso
        assert loop.worst_location == batch.worst_location
