"""Unit tests for the ESS / optimal cost surface."""

import numpy as np
import pytest

from repro import ESS, ESSGrid
from tests.conftest import make_toy_query


class TestBuild:
    def test_shapes(self, toy_ess):
        n = toy_ess.grid.num_points
        assert toy_ess.optimal_cost.shape == (n,)
        assert toy_ess.plan_ids.shape == (n,)
        assert toy_ess.posp_size == len(toy_ess.plans)

    def test_every_plan_id_used(self, toy_ess):
        used = set(np.unique(toy_ess.plan_ids))
        assert used == set(range(toy_ess.posp_size))

    def test_min_max_at_corners(self, toy_ess):
        grid = toy_ess.grid
        origin_cost = toy_ess.optimal_cost[grid.flat_index(grid.origin)]
        terminus_cost = toy_ess.optimal_cost[grid.flat_index(grid.terminus)]
        assert origin_cost == pytest.approx(toy_ess.min_cost)
        assert terminus_cost == pytest.approx(toy_ess.max_cost)

    def test_build_with_resolution_shortcut(self):
        ess = ESS.build(make_toy_query(), resolution=6)
        assert ess.grid.shape == (6, 6)

    def test_build_span_carries_its_ledger(self):
        """The ``ess.build`` span splits a cold build into the DP sweep,
        the signature grouping and the tree reconstruction; the three
        parts fit inside the span."""
        from repro.obs import trace

        tracer = trace.Tracer()
        previous = trace.install_tracer(tracer)
        try:
            ESS.build(make_toy_query(), resolution=24)
        finally:
            trace.install_tracer(previous)
        (build,) = [span for span in tracer.spans if span.name == "ess.build"]
        parts = [build.attrs[name]
                 for name in ("optimize_s", "group_s", "reconstruct_s")]
        assert all(part > 0.0 for part in parts)
        assert sum(parts) <= build.duration_ns / 1e9


class TestPCM:
    """Plan Cost Monotonicity (paper Section 2.4) over the built surface."""

    def test_optimal_cost_monotone_along_each_axis(self, toy_ess):
        surface = toy_ess.optimal_cost.reshape(toy_ess.grid.shape)
        assert (np.diff(surface, axis=0) > 0).all()
        assert (np.diff(surface, axis=1) > 0).all()

    def test_each_plan_cost_monotone(self, toy_ess):
        shape = toy_ess.grid.shape
        for pid in range(toy_ess.posp_size):
            cost = toy_ess.plan_cost_array(pid).reshape(shape)
            assert (np.diff(cost, axis=0) > 0).all()
            assert (np.diff(cost, axis=1) > 0).all()

    def test_optimal_cost_lower_bounds_every_plan(self, toy_ess):
        for pid in range(toy_ess.posp_size):
            cost = toy_ess.plan_cost_array(pid)
            assert (cost >= toy_ess.optimal_cost * (1 - 1e-9)).all()

    def test_plan_optimal_in_own_region(self, toy_ess):
        for pid in range(toy_ess.posp_size):
            region = np.flatnonzero(toy_ess.plan_ids == pid)
            cost = toy_ess.plan_cost_array(pid)[region]
            optimal = toy_ess.optimal_cost[region]
            assert np.allclose(cost, optimal, rtol=1e-9)


class TestCaches:
    def test_plan_cost_at_matches_array(self, toy_ess):
        pid = int(toy_ess.plan_ids[17])
        assert toy_ess.plan_cost_at(pid, 17) == pytest.approx(
            float(toy_ess.plan_cost_array(pid)[17])
        )

    def test_plan_cost_at_points_matches_array(self, toy_ess):
        pid = int(toy_ess.plan_ids[0])
        flats = np.array([0, 5, 17, toy_ess.grid.num_points - 1])
        restricted = toy_ess.plan_cost_at_points(pid, flats)
        full = toy_ess.plan_cost_array(pid)[flats]
        assert np.allclose(restricted, full)

    def test_plan_cost_at_points_without_full_array(self):
        ess = ESS.build(make_toy_query(),
                        grid=ESSGrid(2, resolution=6, sel_min=1e-6))
        flats = np.array([1, 8, 20])
        pid = int(ess.plan_ids[8])
        restricted = ess.plan_cost_at_points(pid, flats)
        assert np.allclose(restricted, ess.plan_cost_array(pid)[flats])

    def test_cost_cache_eviction_bounded(self, toy_ess):
        # Exercise the FIFO bound without asserting internals too hard.
        limit = toy_ess.COST_CACHE_LIMIT
        assert len(toy_ess._cost_arrays) <= limit


class TestSpillData:
    def test_spill_order_covers_all_dims(self, toy_ess):
        for pid in range(toy_ess.posp_size):
            order = toy_ess.spill_order(pid)
            assert sorted(order) == [0, 1]

    def test_spill_dimension_first_remaining(self, toy_ess):
        pid = 0
        order = toy_ess.spill_order(pid)
        assert toy_ess.spill_dimension(pid, order) == order[0]
        assert toy_ess.spill_dimension(pid, [order[1]]) == order[1]
        assert toy_ess.spill_dimension(pid, []) is None

    def test_spill_cost_curve_monotone_and_bounded(self, toy_ess):
        grid = toy_ess.grid
        pid = int(toy_ess.plan_ids[grid.num_points // 2])
        coords = grid.coords_of(grid.num_points // 2)
        for dim in toy_ess.spill_order(pid):
            curve = toy_ess.spill_cost_curve(pid, dim, coords)
            assert curve.shape == (grid.resolution[dim],)
            assert (np.diff(curve) >= -1e-9).all()
            full = toy_ess.plan_cost_at(pid, grid.num_points // 2)
            assert curve[coords[dim]] <= full * (1 + 1e-9)

    def test_suboptimality_surface_at_least_one(self, toy_ess):
        for pid in range(min(3, toy_ess.posp_size)):
            surface = toy_ess.suboptimality_surface(pid)
            assert (surface >= 1 - 1e-9).all()
