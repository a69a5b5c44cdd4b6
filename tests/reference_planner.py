"""Per-state reference planners: the oracle for the level planner.

The level planner of :mod:`repro.core.spill_bound` /
:mod:`repro.core.aligned_bound` plans sibling states of a contour with
segment reductions.  These functions plan *one* state the plain way —
mask the contour, loop over dimensions, parts and partitions with
scalars — using only the public ESS / contour interface, so a slip in
the vectorized planner (a tie broken the other way, a slice mapped to
the wrong sibling) shows up as a field-for-field difference.

Also here: :func:`reached_levels`, which records the ``(contour,
learned keys)`` levels an exhaustive sweep hands the planner, and
:func:`same_steps`, the field-for-field comparison.
"""

import dataclasses

import numpy as np
import pytest

from repro.bench import workloads
from repro.core.aligned_bound import PartStep, set_partitions
from repro.core.mso import evaluate_algorithm
from repro.core.spill_bound import SpillStep, learnable_index
from repro.optimizer.plans import spill_subtree_cost

#: 2D-6D smoke surfaces (plus one lazy) of ``TestLevelPlanIdentity``.
LEVEL_SURFACES = [
    ("2D_Q91", "eager"), ("3D_Q15", "eager"), ("4D_Q26", "eager"),
    ("5D_Q19", "eager"), ("6D_Q18", "eager"), ("4D_Q26", "lazy"),
]


@pytest.fixture(scope="module", params=LEVEL_SURFACES,
                ids=lambda param: "-".join(param))
def level_surface(request):
    name, mode = request.param
    return workloads.load(name, profile="smoke", ess_mode=mode)


def reached_levels(algorithm, points=None):
    """``[(contour, [learned key, ...]), ...]`` of one batched sweep."""
    levels = []
    plan_level = algorithm.plan_level

    def recording(contour_index, learned_keys):
        levels.append((contour_index, list(learned_keys)))
        return plan_level(contour_index, learned_keys)

    algorithm.plan_level = recording
    try:
        evaluate_algorithm(algorithm, points=points, engine="batch")
    finally:
        del algorithm.plan_level
    return levels


_LEVELS = {}


def surface_levels(cls, instance):
    """:func:`reached_levels` of a full sweep, once per (class, surface)."""
    key = (cls, id(instance.ess))
    if key not in _LEVELS:
        _LEVELS[key] = reached_levels(cls(instance.ess, instance.contours))
    return _LEVELS[key]


def same_steps(left, right):
    """Two step lists equal field for field (curves ``array_equal``)."""
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if type(a) is not type(b):
            return False
        for field in dataclasses.fields(a):
            x, y = getattr(a, field.name), getattr(b, field.name)
            if field.name == "curve":
                if not np.array_equal(x, y):
                    return False
            elif x != y:
                return False
    return True


def _effective_slice(algorithm, contour_index, learned):
    contour = algorithm.contours.contour(contour_index)
    keep = np.ones(len(contour.coords), dtype=bool)
    for dim, idx in learned.items():
        keep &= contour.coords[:, dim] == idx
    coords = contour.coords[keep]
    plan_ids = contour.plan_ids[keep]
    remaining = [d for d in range(algorithm.num_dims) if d not in learned]
    spill = [algorithm.ess.spill_dimension(int(pid), remaining)
             for pid in plan_ids]
    return coords, plan_ids, remaining, spill


def reference_sb_steps(algorithm, contour_index, learned):
    """SpillBound's steps for one state, row by row."""
    ess = algorithm.ess
    coords, plan_ids, remaining, spill = _effective_slice(
        algorithm, contour_index, learned)
    budget = algorithm.contours.budget(contour_index)
    steps = []
    for dim in remaining:
        best = None
        for row, spills_on in enumerate(spill):
            # Strictly greater: the first extreme row wins.
            if spills_on == dim and (
                    best is None or coords[row, dim] > coords[best, dim]):
                best = row
        if best is None:
            continue
        qstar = tuple(int(c) for c in coords[best])
        pid = int(plan_ids[best])
        curve = ess.spill_cost_curve(pid, dim, qstar)
        steps.append(SpillStep(
            dim, pid, qstar, budget,
            learnable_index(curve, budget, qstar[dim]), curve))
    return steps


def _local_pool(algorithm, contour_index, leader, remaining):
    ess, contours = algorithm.ess, algorithm.contours
    ids = []
    for index in range(max(1, contour_index - 1),
                       min(contours.num_contours, contour_index + 1) + 1):
        for pid in contours.contour(index).unique_plan_ids():
            if pid not in ids:
                ids.append(pid)
    return [pid for pid in ids
            if ess.spill_dimension(pid, remaining) == leader]


def _leader_step(algorithm, contour_index, part, leader, slice_):
    ess = algorithm.ess
    coords, plan_ids, remaining, spill = slice_
    budget = algorithm.contours.budget(contour_index)
    members = [row for row, s in enumerate(spill) if s in part]
    max_j = max(int(coords[row, leader]) for row in members)
    for row in members:
        if spill[row] == leader and int(coords[row, leader]) == max_j:
            # PSA holds natively at the first extreme leader-spiller.
            location = tuple(int(c) for c in coords[row])
            pid = int(plan_ids[row])
            curve = ess.spill_cost_curve(pid, leader, location)
            return PartStep(part, leader, pid, location, budget,
                            learnable_index(curve, budget, max_j), curve,
                            1.0, True)
    pool = _local_pool(algorithm, contour_index, leader, remaining)
    extreme = [row for row in range(len(coords))
               if int(coords[row, leader]) == max_j]
    if not pool or not extreme:
        return None
    flats = np.asarray([
        ess.grid.flat_index(tuple(int(c) for c in coords[row]))
        for row in extreme
    ])
    costs = np.asarray([ess.plan_cost_at_points(pid, flats) for pid in pool])
    # Row-major argmin: first pool plan, then first location.
    k, j = divmod(int(np.argmin(costs)), len(extreme))
    cost, pid, row = float(costs[k, j]), pool[k], extreme[j]
    spend = max(budget, cost)
    location = tuple(int(c) for c in coords[row])
    curve = ess.spill_cost_curve(pid, leader, location)
    return PartStep(part, leader, pid, location, spend,
                    learnable_index(curve, spend, max_j), curve,
                    spend / budget, False)


def reference_ab_steps(algorithm, contour_index, learned):
    """AlignedBound's chosen partition for one state, part by part."""
    slice_ = _effective_slice(algorithm, contour_index, learned)
    active = sorted({s for s in slice_[3] if s is not None})
    if not active:
        return []
    part_steps = {}

    def evaluate(part):
        if part not in part_steps:
            best = None
            for leader in part:
                step = _leader_step(algorithm, contour_index, part, leader,
                                    slice_)
                if step is not None and (
                        best is None or step.penalty < best.penalty - 1e-12):
                    best = step
            part_steps[part] = best
        return part_steps[part]

    best_steps, best_cost = None, np.inf
    for partition in set_partitions(active):
        parts = [evaluate(tuple(sorted(part))) for part in partition]
        if any(step is None for step in parts):
            continue
        cost = 0.0
        for step in parts:
            cost += step.penalty
        if best_steps is None or cost < best_cost - 1e-12 or (
                abs(cost - best_cost) <= 1e-12
                and len(parts) < len(best_steps)):
            best_cost = cost
            best_steps = sorted(parts, key=lambda step: step.leader)
    return best_steps


def reference_curve(ess, step):
    """A step's spill curve from a one-location cost-model call."""
    grid = ess.grid
    location = getattr(step, "qstar_coords", None) or step.location
    env = {d: grid.selectivity(d, location[d]) for d in range(grid.num_dims)}
    env[step.exec_dim] = grid.values[step.exec_dim]
    return np.broadcast_to(
        np.asarray(
            spill_subtree_cost(
                ess.plans[step.plan_id], ess.query, ess.cost_model, env,
                ess.query.epps[step.exec_dim].name,
            ),
            dtype=float,
        ),
        (grid.resolution[step.exec_dim],),
    )
