"""Deduplicated plan reconstruction must match per-point recursion.

``OptimizationResult.plans()`` groups grid locations by their signature
of load-bearing DP choice entries and rebuilds one plan tree per
distinct signature; these tests pin its exact equivalence to the naive
``plan_at`` recursion at every location, and the grouping helper's to
``np.unique(axis=0)``.
"""

import numpy as np
import pytest

from repro import ESSGrid
from repro.bench import workloads
from repro.optimizer import optimizer as optimizer_module
from repro.optimizer.optimizer import Optimizer, group_rows
from tests.conftest import make_star_query, make_toy_query


def _sweep(query, num_dims, resolution):
    grid = ESSGrid(num_dims, resolution=resolution, sel_min=1e-6)
    optimizer = Optimizer(query)
    result = optimizer.optimize(grid.environment(),
                                num_points=grid.num_points)
    return grid, result


def _keys(result):
    """Per-location plan keys from ``plans()``'s groups and roots."""
    groups, roots = result.plans()
    return [roots[group].key for group in groups]


class TestDedupReconstruction:
    def test_matches_per_point_recursion_toy(self):
        grid, result = _sweep(make_toy_query(), 2, 16)
        keys = _keys(result)
        for point in range(grid.num_points):
            assert keys[point] == result.plan_at(point).key

    def test_matches_per_point_recursion_star(self):
        grid, result = _sweep(make_star_query(3), 3, 7)
        keys = _keys(result)
        for point in range(grid.num_points):
            assert keys[point] == result.plan_at(point).key

    def test_matches_per_point_recursion_multi_chunk(self, monkeypatch):
        """A real query whose signature packs into several 62-bit chunks."""
        instance = workloads.load("6D_Q18", profile="smoke", resolution=4,
                                  ess_mode="lazy")
        optimizer = Optimizer(instance.query)
        grid = instance.ess.grid
        result = optimizer.optimize(grid.environment(),
                                    num_points=grid.num_points)
        packed = []

        def spy(rows, radices):
            packed.append(sum(np.log2(np.asarray(radices) + 1)))
            return group_rows(rows, radices)

        monkeypatch.setattr(optimizer_module, "group_rows", spy)
        keys = _keys(result)
        assert packed[0] > 2 * 62
        assert len(set(keys)) > 1
        for point in range(grid.num_points):
            assert keys[point] == result.plan_at(point).key

    def test_pool_contains_exactly_the_full_plans(self):
        grid, result = _sweep(make_star_query(3), 3, 7)
        groups, roots = result.plans()
        assert groups.shape == (grid.num_points,)
        assert sorted(set(groups.tolist())) == list(range(len(roots)))
        full_tables = result._optimizer.all_tables
        for plan in roots:
            assert plan.tables == full_tables

    def test_single_point_sweep(self):
        query = make_toy_query()
        optimizer = Optimizer(query)
        result = optimizer.optimize({0: 1e-4, 1: 1e-3}, num_points=1)
        keys = _keys(result)
        assert len(keys) == 1
        assert keys[0] == result.plan_at(0).key

    def test_left_deep_space(self):
        query = make_toy_query()
        grid = ESSGrid(2, resolution=12, sel_min=1e-6)
        optimizer = Optimizer(query, left_deep=True)
        result = optimizer.optimize(grid.environment(),
                                    num_points=grid.num_points)
        keys = _keys(result)
        for point in range(grid.num_points):
            assert keys[point] == result.plan_at(point).key


def _assert_groups_like_unique(rows, radices):
    _, first, inverse = np.unique(rows, axis=0, return_index=True,
                                  return_inverse=True)
    got_first, got_inverse = group_rows(rows, radices)
    assert np.array_equal(got_first, first)
    assert np.array_equal(got_inverse, inverse.reshape(-1))
    assert got_inverse.shape == (rows.shape[0],)


class TestGroupRows:
    """``group_rows`` returns ``np.unique(axis=0)``'s first rows and
    inverse exactly, lexicographic group order included."""

    @pytest.mark.parametrize("n", [1, 2, 7, 1000])
    @pytest.mark.parametrize("width", [1, 2, 9, 31, 64, 200])
    def test_random_matrices(self, n, width):
        rng = np.random.default_rng(n * 1000 + width)
        radices = rng.integers(1, 40, size=width)
        rows = rng.integers(-1, radices, size=(n, width)).astype(np.int32)
        _assert_groups_like_unique(rows, radices)
        # Few distinct rows, repeated in random order.
        repeated = rows[rng.integers(0, min(n, 5), size=n)]
        _assert_groups_like_unique(repeated, radices)

    @pytest.mark.parametrize("width", [1, 31, 200])
    def test_all_equal_rows(self, width):
        rng = np.random.default_rng(width)
        radices = np.full(width, 35)
        row = rng.integers(-1, 35, size=width).astype(np.int32)
        rows = np.tile(row, (50, 1))
        first, inverse = group_rows(rows, radices)
        assert first.tolist() == [0]
        assert not inverse.any()
        _assert_groups_like_unique(rows, radices)

    @pytest.mark.parametrize("width", [1, 31, 200])
    def test_all_distinct_rows(self, width):
        rng = np.random.default_rng(width + 1)
        radices = np.full(width, 3)
        # Row i leads with i's base-4 digits (minus one): all distinct.
        lead = min(width, 3)
        n = 4 ** lead
        rows = rng.integers(-1, 3, size=(n, width)).astype(np.int32)
        for k in range(lead):
            rows[:, k] = np.arange(n) // 4 ** (lead - 1 - k) % 4 - 1
        rows = rows[rng.permutation(n)]
        first, _ = group_rows(rows, radices)
        assert len(first) == n
        _assert_groups_like_unique(rows, radices)

    def test_extreme_digits_across_chunks(self):
        """Entries -1 and radix - 1 side by side, on a width that packs
        into four chunks, order as signed integers do."""
        radices = np.full(48, 31)  # 5 bits a digit, 12 digits a chunk
        rows = np.full((6, 48), -1, dtype=np.int32)
        rows[1, 47] = 30
        rows[2, 12] = 0
        rows[3, 0] = 30
        rows[4] = 30
        rows[5, 24] = 30
        _assert_groups_like_unique(rows, radices)

    def test_no_columns(self):
        first, inverse = group_rows(np.empty((5, 0), dtype=np.int32), [])
        assert first.tolist() == [0]
        assert inverse.tolist() == [0] * 5
