"""Unit tests for AlignedBound: partitions, PSA, penalties, guarantees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AlignedBound,
    SpillBound,
    contour_alignment_stats,
    evaluate_algorithm,
)
from repro.arena.adversarial import build_adversarial_instance
from repro.core.aligned_bound import set_partitions
from tests.reference_planner import level_surface  # noqa: F401 (fixture)
from tests.reference_planner import (
    reference_ab_steps,
    reference_curve,
    same_steps,
    surface_levels,
)


class TestSetPartitions:
    @pytest.mark.parametrize("n,bell", [(0, 1), (1, 1), (2, 2), (3, 5),
                                        (4, 15), (5, 52), (6, 203)])
    def test_bell_numbers(self, n, bell):
        assert len(list(set_partitions(range(n)))) == bell

    def test_partitions_cover_exactly(self):
        for partition in set_partitions([0, 1, 2, 3]):
            flat = [x for part in partition for x in part]
            assert sorted(flat) == [0, 1, 2, 3]

    def test_no_empty_parts(self):
        for partition in set_partitions([0, 1, 2]):
            assert all(len(part) > 0 for part in partition)

    def test_partitions_distinct(self):
        seen = {
            frozenset(frozenset(p) for p in partition)
            for partition in set_partitions(range(4))
        }
        assert len(seen) == 15


class TestGuarantee:
    def test_range_formula(self, toy_ab):
        low, high = toy_ab.mso_guarantee_range()
        assert low == 6.0 and high == 10.0  # D=2

    def test_empirical_within_upper_bound(self, toy_ab):
        evaluation = evaluate_algorithm(toy_ab)
        assert evaluation.mso <= toy_ab.mso_guarantee() * (1 + 1e-9)

    def test_3d_within_upper_bound(self, star_ess, star_contours):
        ab = AlignedBound(star_ess, star_contours)
        evaluation = evaluate_algorithm(ab)
        assert evaluation.mso <= ab.mso_guarantee() * (1 + 1e-9)


class TestExecutionSemantics:
    def test_terminates_everywhere(self, toy_ab, toy_ess):
        for flat in range(0, toy_ess.grid.num_points, 19):
            result = toy_ab.run(flat)
            assert result.completed_plan_key
            assert result.suboptimality >= 1.0 - 1e-9

    def test_never_slower_than_sb_by_much(self, toy_ab, toy_sb, toy_ess):
        """AB may pay penalties but its MSO must stay comparable."""
        ab_eval = evaluate_algorithm(toy_ab)
        sb_eval = evaluate_algorithm(toy_sb)
        assert ab_eval.mso <= max(sb_eval.mso * 1.5, toy_ab.mso_guarantee())

    def test_max_penalty_recorded(self, toy_ab):
        result = toy_ab.run(250)
        assert result.max_penalty >= 1.0
        assert toy_ab.observed_max_penalty >= result.max_penalty

    def test_penalties_in_trace(self, toy_ab):
        result = toy_ab.run(250, trace=True)
        for record in result.executions:
            assert record.penalty >= 1.0 - 1e-12

    def test_at_most_one_execution_per_part(self, toy_ab, toy_ess):
        """Each contour pass executes at most one plan per partition
        part, hence no more than D spill executions per pass."""
        d = toy_ess.grid.num_dims
        result = toy_ab.run(333, trace=True)
        passes = {}
        for record in result.executions:
            if record.mode == "spill":
                passes.setdefault(record.contour, 0)
                passes[record.contour] += 1
        # With re-planning after each learning, a contour sees at most
        # D + D-1 + ... executions, bounded by D passes of <= D parts.
        assert all(v <= d * d for v in passes.values())

    def test_learning_correctness(self, toy_ab, toy_ess):
        grid = toy_ess.grid
        coords = (grid.resolution[0] - 3, 4)
        result = toy_ab.run(coords, trace=True)
        for record in result.executions:
            if record.mode == "spill" and record.completed:
                dim = record.spill_dim
                assert record.learned_selectivity == pytest.approx(
                    grid.selectivity(dim, coords[dim])
                )


class TestCostArrays:
    def test_no_cost_array_outlives_its_ess_cache_entry(self, monkeypatch):
        """With ``COST_CACHE_LIMIT`` small, a sweep plus runs leaves no
        full-grid cost array alive that the ESS cache has evicted: the
        ESS bound is the bound on every cost array the object holds.
        Catches a per-object ref cache of cost arrays that outlives the
        planning call."""
        import gc
        import weakref

        from repro.ess.contours import ContourSet
        from repro.ess.grid import ESSGrid
        from repro.ess.ocs import ESS
        from tests.conftest import make_star_query

        ess = ESS.build(make_star_query(3),
                        ESSGrid(3, resolution=8, sel_min=1e-6))
        monkeypatch.setattr(ess, "COST_CACHE_LIMIT", 2)
        handed_out = []
        fetch = ess.plan_cost_array

        def recording(plan_id):
            array = fetch(plan_id)
            handed_out.append((plan_id, weakref.ref(array)))
            return array

        monkeypatch.setattr(ess, "plan_cost_array", recording)
        algorithm = AlignedBound(ess, ContourSet(ess))
        evaluate_algorithm(algorithm)
        for flat in range(0, ess.grid.num_points, 37):
            algorithm.run(flat)
        gc.collect()
        alive = {id(a) for a in (ref() for _, ref in handed_out)
                 if a is not None}
        cached = {id(a) for a in ess._cost_arrays.values()}
        assert len({pid for pid, _ in handed_out}) > ess.COST_CACHE_LIMIT
        assert alive <= cached, len(alive - cached)


class TestStepSlots:
    def test_planned_steps_are_slotted(self, toy_ess, toy_contours):
        """AlignedBound's cached parts carry no per-instance
        ``__dict__``, like SpillBound's steps."""
        ab = AlignedBound(toy_ess, toy_contours)
        ab.run(250)
        steps = [step for planned in ab._step_cache.values()
                 for step in planned]
        assert steps
        for step in steps:
            assert not hasattr(step, "__dict__")
            with pytest.raises(AttributeError):
                step.budget = 0.0


class TestAlignmentStats:
    def test_fractions_monotone_in_threshold(self, toy_ess, toy_contours):
        stats = contour_alignment_stats(toy_ess, toy_contours)
        fractions = [stats.fraction_aligned(t) for t in (1.0, 1.2, 1.5, 2.0)]
        assert fractions == sorted(fractions)

    def test_fraction_bounds(self, toy_ess, toy_contours):
        stats = contour_alignment_stats(toy_ess, toy_contours)
        assert 0.0 <= stats.fraction_aligned(1.0) <= 1.0

    def test_max_penalty_aligns_everything(self, toy_ess, toy_contours):
        stats = contour_alignment_stats(toy_ess, toy_contours)
        if stats.max_penalty != float("inf"):
            assert stats.fraction_aligned(stats.max_penalty) == pytest.approx(
                1.0
            )

    def test_penalties_at_least_one(self, toy_ess, toy_contours):
        stats = contour_alignment_stats(toy_ess, toy_contours)
        assert all(p >= 1.0 for p in stats.contour_penalties)


class TestPartitionChoice:
    def test_partition_covers_active_dims(self, toy_ab):
        steps = toy_ab.contour_steps(3, {})
        dims_covered = set()
        for step in steps:
            dims_covered.update(step.dims)
        # Each active dim appears in exactly one part.
        total = sum(len(step.dims) for step in steps)
        assert total == len(dims_covered)

    def test_leaders_belong_to_their_parts(self, toy_ab):
        steps = toy_ab.contour_steps(4, {})
        for step in steps:
            assert step.leader in step.dims

    def test_native_steps_have_unit_penalty(self, toy_ab):
        steps = toy_ab.contour_steps(4, {})
        for step in steps:
            if step.native:
                assert step.penalty == pytest.approx(1.0)


def _assert_level_plans(instance):
    """Whole level == each key alone == the part-by-part oracle."""
    planner = AlignedBound(instance.ess, instance.contours)
    for contour_index, keys in surface_levels(AlignedBound, instance):
        whole = planner._plan_states(contour_index, keys)
        for key, steps in zip(keys, whole):
            alone, = planner._plan_states(contour_index, [key])
            assert same_steps(steps, alone), (contour_index, key)
            assert same_steps(steps, reference_ab_steps(
                planner, contour_index, dict(key)
            )), (contour_index, key)


class TestLevelPlanIdentity:
    """The level planner gives every state the partition it gets alone.

    As ``tests/test_spill_bound.py::TestLevelPlanIdentity``: every state
    of an exhaustive sweep on the 2D-6D smoke surfaces (eager, plus one
    lazy), planned with its whole level, a drawn subset and alone, and
    against the part-by-part oracle of ``tests/reference_planner.py``.
    """

    def test_whole_level_each_key_alone_and_oracle_agree(self, level_surface):
        """Catches a native check read off the wrong cell of the
        per-slice "largest leader coordinate among the rows spilling on
        s" table, a replacement search that takes the last instead of
        the first cheapest (plan, location) pair, and steps handed to
        the wrong sibling."""
        _assert_level_plans(level_surface)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 5])
    def test_tie_breaks_on_flat_cost_surfaces(self, seed):
        """On the Theorem 4.6 surface every plan costs the same
        everywhere, so every replacement has penalty exactly 1 and
        leaders and equal-sized partitions tie everywhere.  Catches
        ``<=`` for ``<`` in the partition tie-break (an equal-sized
        later partition would replace the first enumerated) and a later
        leader winning a penalty tie."""
        _assert_level_plans(build_adversarial_instance(seed))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_any_subset_of_a_level_plans_the_same(self, level_surface, data):
        """Catches state that leaks between siblings or between the
        active-set groups of one call: a subset of the level, in any
        order, must plan each member as the whole level does."""
        planner = AlignedBound(level_surface.ess, level_surface.contours)
        contour_index, keys = data.draw(
            st.sampled_from(surface_levels(AlignedBound, level_surface)))
        subset = data.draw(
            st.lists(st.sampled_from(keys), unique=True, min_size=1))
        whole = dict(zip(keys, planner._plan_states(contour_index, keys)))
        for key, steps in zip(subset,
                              planner._plan_states(contour_index, subset)):
            assert same_steps(steps, whole[key]), (contour_index, key)

    def test_batched_curve_rows_equal_one_location_curves(self, level_surface):
        """Catches a broadcast cost-model call that rounds differently
        from the one-location call, on the replacement plans' curves too
        (the curve cache is emptied first so levels evaluate batched)."""
        ess = level_surface.ess
        planner = AlignedBound(ess, level_surface.contours)
        ess._subtree_costs.clear()
        for contour_index, keys in surface_levels(AlignedBound,
                                                  level_surface):
            for steps in planner._plan_states(contour_index, keys):
                for step in steps:
                    assert np.array_equal(
                        step.curve, reference_curve(ess, step))

    @pytest.mark.parametrize("draw", range(6))
    def test_partition_scan_is_the_scalar_scan(self, draw):
        """``_choose_partitions`` against the scalar scan it replaces,
        on totals drawn from a few values jittered inside and outside
        the 1e-12 tolerance.  Catches dropping the ``len(parts)`` tie
        rule and ``<=`` for ``<`` in it."""
        from repro.core.aligned_bound import _choose_partitions

        rng = np.random.default_rng(draw)
        sizes = rng.integers(1, 5, size=40)
        total = rng.choice([2.0, 3.0, 3.5, np.inf], size=(60, 40)) + (
            rng.choice([0.0, 4e-13, -4e-13, 3e-12], size=(60, 40)))
        total[0] = np.inf  # a slice with no feasible partition
        expected = []
        for row in total:
            best, least, fewest = -1, np.inf, None
            for partition, cost in enumerate(row.tolist()):
                if cost == np.inf:
                    continue
                if best < 0 or cost < least - 1e-12 or (
                        abs(cost - least) <= 1e-12
                        and sizes[partition] < fewest):
                    best, least, fewest = partition, cost, sizes[partition]
            expected.append(best)
        assert _choose_partitions(total, sizes).tolist() == expected
        assert expected[0] == -1 and len(set(expected)) > 3

    def test_fewer_parts_win_a_penalty_tie(self):
        """Catches dropping the ``len(parts)`` tie rule (partition 1
        would stay) and ``<=`` in it (partition 3 would win)."""
        from repro.core.aligned_bound import _choose_partitions

        total = np.asarray([[5.0, 3.0, 3.0, 3.0]])
        sizes = np.asarray([1, 3, 2, 2])
        assert _choose_partitions(total, sizes).tolist() == [2]

    def test_replacement_search_takes_the_first_cheapest_pair(self):
        """``_induce`` against a row-major ``argmin`` per request, on
        integer-valued cost surfaces full of ties.  Catches the last
        instead of the first cheapest pool plan or location."""
        instance = build_adversarial_instance(1, num_dims=3, resolution=5)
        planner = AlignedBound(instance.ess, instance.contours)
        contour = instance.contours.contour(1)
        rng = np.random.default_rng(7)
        pool = np.asarray([2, 0, 1])
        surfaces = {
            pid: rng.integers(
                1, 4, size=instance.ess.grid.num_points).astype(float)
            for pid in pool.tolist()
        }
        rows = rng.permutation(len(contour.points))[:90]
        row_code = rng.integers(0, 12, size=len(rows))
        requests = np.unique(row_code)[::2]
        cost, pid, row = planner._induce(
            contour, pool, rows, row_code, requests, surfaces)
        for k, request in enumerate(requests.tolist()):
            members = rows[row_code == request]
            costs = np.asarray([
                surfaces[p][contour.points[members]]
                for p in pool.tolist()
            ])
            first = int(np.argmin(costs))
            assert cost[k] == costs.flat[first]
            assert pid[k] == pool[first // len(members)]
            assert row[k] == members[first % len(members)]

    def test_partition_table_is_the_enumeration(self):
        """The bitmask table the planner scans lists ``set_partitions``
        in enumeration order, parts in summation order."""
        from repro.core.aligned_bound import _partition_table

        for num in range(1, 6):
            table, sizes = _partition_table(num)
            listed = [
                [sum(1 << item for item in part) for part in partition]
                for partition in set_partitions(range(num))
            ]
            assert [row[row > 0].tolist() for row in table] == listed
            assert sizes.tolist() == [len(masks) for masks in listed]
