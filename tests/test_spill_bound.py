"""Unit tests for SpillBound: guarantees, lemma properties, traces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SpillBound, evaluate_algorithm
from repro.core.spill_bound import learnable_index
from tests.reference_planner import level_surface  # noqa: F401 (fixture)
from tests.reference_planner import (
    reference_curve,
    reference_sb_steps,
    same_steps,
    surface_levels,
)


class TestGuarantee:
    def test_formula(self, toy_sb):
        assert toy_sb.mso_guarantee() == 10.0  # D=2: D^2+3D

    def test_static_formula(self):
        assert SpillBound.mso_guarantee_for(4) == 28.0
        assert SpillBound.mso_guarantee_for(6) == 54.0

    def test_empirical_within_guarantee(self, toy_sb):
        evaluation = evaluate_algorithm(toy_sb)
        assert evaluation.mso <= toy_sb.mso_guarantee() * (1 + 1e-9)

    def test_3d_empirical_within_guarantee(self, star_ess, star_contours):
        sb = SpillBound(star_ess, star_contours)
        evaluation = evaluate_algorithm(sb)
        assert evaluation.mso <= sb.mso_guarantee() * (1 + 1e-9)


class TestLearnableIndex:
    def test_threshold_semantics(self):
        curve = np.array([1.0, 2.0, 4.0, 8.0])
        assert learnable_index(curve, 4.0, 0) == 2
        assert learnable_index(curve, 3.9, 0) == 1
        assert learnable_index(curve, 100.0, 0) == 3

    def test_floor_clamp(self):
        curve = np.array([1.0, 2.0, 4.0])
        assert learnable_index(curve, 0.5, 1) == 1


class TestExecutionSemantics:
    def test_terminates_everywhere(self, toy_sb, toy_ess):
        for flat in range(0, toy_ess.grid.num_points, 11):
            result = toy_sb.run(flat)
            assert result.completed_plan_key
            assert result.suboptimality >= 1.0 - 1e-9

    def test_trace_learns_exact_selectivities(self, toy_sb, toy_ess):
        grid = toy_ess.grid
        coords = (grid.resolution[0] // 2, grid.resolution[1] // 2)
        result = toy_sb.run(coords, trace=True)
        for record in result.executions:
            if record.mode == "spill" and record.completed:
                dim = record.spill_dim
                assert record.learned_selectivity == pytest.approx(
                    grid.selectivity(dim, coords[dim])
                )

    def test_half_space_pruning_lemma(self, toy_sb, toy_ess):
        """Lemma 3.1: a failed spill execution proves qa.j > q*.j —
        i.e. the learnt lower bound never overshoots qa's coordinate."""
        grid = toy_ess.grid
        for flat in range(0, grid.num_points, 29):
            coords = grid.coords_of(flat)
            result = toy_sb.run(flat, trace=True)
            for record in result.executions:
                if record.mode == "spill" and not record.completed:
                    dim = record.spill_dim
                    learnt = record.learned_selectivity
                    assert learnt < grid.selectivity(dim, coords[dim]) * (
                        1 + 1e-9
                    )

    def test_cdi_lemma_jump_justified(self, toy_sb, toy_ess, toy_contours):
        """Lemma 3.2/4.3: the algorithm only jumps past contours whose
        budget is below qa's optimal cost."""
        for flat in [50, 180, 333]:
            result = toy_sb.run(flat)
            qa_cost = float(toy_ess.optimal_cost[flat])
            # All contours strictly below the final one were jumped.
            final = result.contours_visited
            for index in range(1, final):
                # qa must lie beyond every fully-failed contour...
                pass
            assert qa_cost <= toy_contours.budget(final) * (1 + 1e-9) or (
                final == toy_contours.num_contours
            )

    def test_fresh_executions_bounded_by_d(self, toy_sb, toy_ess):
        """Lemma 4.4 (first half): at most D fresh executions/contour."""
        d = toy_ess.grid.num_dims
        for flat in range(0, toy_ess.grid.num_points, 23):
            result = toy_sb.run(flat, trace=True)
            per_contour = {}
            for record in result.executions:
                if record.mode == "spill" and record.fresh:
                    per_contour.setdefault(record.contour, 0)
                    per_contour[record.contour] += 1
            assert all(v <= d for v in per_contour.values())

    def test_repeat_executions_bounded(self, toy_sb, toy_ess):
        """Lemma 4.4 (second half): repeats <= D(D-1)/2 in total."""
        d = toy_ess.grid.num_dims
        bound = d * (d - 1) // 2
        for flat in range(0, toy_ess.grid.num_points, 23):
            result = toy_sb.run(flat)
            assert result.num_repeat_executions <= bound

    def test_qrun_monotone_never_overtakes_qa(self, toy_sb, toy_ess):
        grid = toy_ess.grid
        for flat in [120, 260, 399]:
            coords = grid.coords_of(flat)
            result = toy_sb.run(flat, trace=True)
            best = [0.0] * grid.num_dims
            for record in result.executions:
                if record.mode != "spill":
                    continue
                dim = record.spill_dim
                learnt = record.learned_selectivity
                if not math.isnan(learnt):
                    assert learnt >= best[dim] - 1e-12  # monotone advance
                    best[dim] = max(best[dim], learnt)
                    assert best[dim] <= grid.selectivity(
                        dim, coords[dim]
                    ) * (1 + 1e-9)

    def test_one_d_tail_runs_normal_mode(self, toy_sb):
        result = toy_sb.run((5, 15), trace=True)
        modes = [r.mode for r in result.executions]
        # Once a normal-mode (1-D bouquet) execution starts, no spill
        # executions follow.
        if "normal" in modes:
            first_normal = modes.index("normal")
            assert all(m == "normal" for m in modes[first_normal:])

    def test_accounting_consistency(self, toy_sb):
        result = toy_sb.run(77, trace=True)
        assert result.total_cost == pytest.approx(
            sum(r.charged for r in result.executions)
        )
        assert result.num_executions == len(result.executions)

    def test_input_forms_equivalent(self, toy_sb, toy_ess):
        grid = toy_ess.grid
        flat = 133
        coords = grid.coords_of(flat)
        sels = grid.selectivities_of(flat)
        assert toy_sb.run(flat).total_cost == pytest.approx(
            toy_sb.run(coords).total_cost
        )
        assert toy_sb.run(sels).total_cost == pytest.approx(
            toy_sb.run(flat).total_cost
        )


class TestStateCaching:
    def test_cached_and_fresh_instances_agree(self, toy_sb, toy_ess,
                                              toy_contours):
        fresh = SpillBound(toy_ess, toy_contours)
        for flat in [3, 88, 199, 310]:
            assert fresh.run(flat).total_cost == pytest.approx(
                toy_sb.run(flat).total_cost
            )

    def test_step_cache_populated(self, toy_ess, toy_contours):
        sb = SpillBound(toy_ess, toy_contours)
        sb.run(200)
        assert len(sb._step_cache) > 0

    def test_planned_steps_are_slotted(self, toy_ess, toy_contours):
        """Cached steps carry no per-instance ``__dict__``: the step
        cache is the largest resident planner cache of a served object."""
        sb = SpillBound(toy_ess, toy_contours)
        sb.run(200)
        steps = [step for planned in sb._step_cache.values()
                 for step in planned]
        assert steps
        for step in steps:
            assert not hasattr(step, "__dict__")
            with pytest.raises(AttributeError):
                step.budget = 0.0

    def test_slice_index_lookup_matches_a_row_scan(self, star_ess,
                                                  star_contours):
        """Catches a lookup that takes the run ``searchsorted`` lands on
        without checking its code: a key whose code lies below the first
        code present, above the last or in a gap between two must find
        no slice, on a swept object and on a cold one alike, and every
        present code exactly the rows a scan of the contour finds."""
        warm = SpillBound(star_ess, star_contours)
        evaluate_algorithm(warm, engine="batch")
        resolution = star_ess.grid.resolution
        checked = {"below": 0, "above": 0, "gap": 0, "present": 0}
        for contour_index, dims in list(warm._slice_indexes):
            if not dims:
                continue
            contour = star_contours.contour(contour_index)
            _, codes, _, radix = warm._slice_index(contour, dims)
            space = int(radix[0]) * resolution[dims[0]]
            present = set(codes.tolist())
            probes = {"present": sorted(present)[::3]}
            probes["below"] = list(range(min(present)))[:2]
            probes["above"] = list(range(max(present) + 1, space))[:2]
            probes["gap"] = [code for code in range(min(present),
                                                    max(present))
                             if code not in present][:3]
            keys, kinds = [], []
            for kind, probe in probes.items():
                for code in probe:
                    keys.append(tuple(
                        (dim, code // int(weight) % resolution[dim])
                        for dim, weight in zip(dims, radix)))
                    kinds.append(kind)
                checked[kind] += len(probe)
            expected = {}
            for key in keys:
                match = np.ones(len(contour.coords), dtype=bool)
                for dim, value in key:
                    match &= contour.coords[:, dim] == value
                if match.any():
                    expected[key] = np.flatnonzero(match).tolist()
            assert all((key in expected) == (kind == "present")
                       for key, kind in zip(keys, kinds))
            cold = SpillBound(star_ess, star_contours)
            for planner in (warm, cold):
                found = {}
                for slices in planner._sibling_slices(contour, keys):
                    ends = [*slices.starts[1:].tolist(), len(slices.rows)]
                    for number, low, high in zip(
                            slices.states, slices.starts.tolist(), ends):
                        found[keys[number]] = slices.rows[low:high].tolist()
                assert found == expected, (contour_index, dims)
        assert all(checked.values()), checked


class TestLevelPlanIdentity:
    """The level planner gives every state the steps it gets alone.

    Every state an exhaustive sweep reaches on the 2D-6D smoke surfaces
    (eager, plus one lazy) is planned three ways — with its whole
    ``(contour, |learned|)`` level, with a drawn subset of the level, on
    its own — and against the row-by-row oracle of
    ``tests/reference_planner.py``.
    """

    def test_whole_level_each_key_alone_and_oracle_agree(self, level_surface):
        """Catches the *last* instead of the first extreme-coordinate row
        (an ascending instead of a descending rank in
        ``extreme_spillers``: the oracle keeps the first row of a
        coordinate tie) and a slice handed to the wrong sibling (whole
        level vs each key alone)."""
        planner = SpillBound(level_surface.ess, level_surface.contours)
        for contour_index, keys in surface_levels(SpillBound, level_surface):
            whole = planner._plan_states(contour_index, keys)
            for key, steps in zip(keys, whole):
                alone, = planner._plan_states(contour_index, [key])
                assert same_steps(steps, alone), (contour_index, key)
                assert same_steps(steps, reference_sb_steps(
                    planner, contour_index, dict(key)
                )), (contour_index, key)
                assert [step.dim for step in steps] == sorted(
                    step.dim for step in steps)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_any_subset_of_a_level_plans_the_same(self, level_surface, data):
        """Catches state that leaks between siblings: a subset of the
        level, in any order, must plan each member as the whole level
        does (a sibling table indexed by level position instead of by
        position in the call would pass the two fixed shapes above)."""
        planner = SpillBound(level_surface.ess, level_surface.contours)
        contour_index, keys = data.draw(
            st.sampled_from(surface_levels(SpillBound, level_surface)))
        subset = data.draw(
            st.lists(st.sampled_from(keys), unique=True, min_size=1))
        whole = dict(zip(keys, planner._plan_states(contour_index, keys)))
        for key, steps in zip(subset,
                              planner._plan_states(contour_index, subset)):
            assert same_steps(steps, whole[key]), (contour_index, key)

    def test_batched_curve_rows_equal_one_location_curves(self, level_surface):
        """Catches a broadcast cost-model call that rounds differently
        from the one-location call (bit for bit, not ``allclose``): the
        curve cache is emptied first so whole levels evaluate batched."""
        ess = level_surface.ess
        planner = SpillBound(ess, level_surface.contours)
        ess._subtree_costs.clear()
        for contour_index, keys in surface_levels(SpillBound, level_surface):
            for steps in planner._plan_states(contour_index, keys):
                for step in steps:
                    assert np.array_equal(
                        step.curve, reference_curve(ess, step))
                    assert np.array_equal(step.curve, ess.spill_cost_curve(
                        step.plan_id, step.dim, step.qstar_coords))
