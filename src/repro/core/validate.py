"""Runtime invariant validation for built artifacts.

Downstream users (and our own fuzz tests) can hand any built ESS or
contour set to these checkers and get either a clean bill of health or
a precise description of the violated invariant.  The invariants are
the ones the MSO analysis rests on (DESIGN.md §6).  Discovery runs are
checked by :meth:`repro.conformance.ConformanceMonitor.check_run`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DiscoveryError


class ValidationError(DiscoveryError):
    """A structural invariant does not hold."""


def validate_ess(ess, sample_plans=8):
    """Check a built ESS: PCM, optimality, plan-region consistency.

    Args:
        ess: the built :class:`~repro.ess.ocs.ESS`.
        sample_plans: how many POSP plans to check in depth (all plans'
            regions are always checked for optimality).

    Raises :class:`ValidationError` on the first violation; returns a
    summary dict on success.
    """
    grid = ess.grid
    shape = grid.shape
    surface = ess.optimal_cost.reshape(shape)

    # PCM of the optimal surface along every axis.
    for axis in range(grid.num_dims):
        if not (np.diff(surface, axis=axis) > 0).all():
            raise ValidationError(
                f"optimal cost surface not strictly increasing on axis {axis}"
            )

    # Optimality: each plan matches the surface on its own region and
    # never undercuts it elsewhere.
    check_ids = list(range(ess.posp_size))
    deep_ids = check_ids[:: max(1, len(check_ids) // max(sample_plans, 1))]
    for pid in deep_ids:
        cost = ess.plan_cost_array(pid)
        if (cost < ess.optimal_cost * (1 - 1e-9)).any():
            raise ValidationError(
                f"plan {pid} undercuts the optimal surface somewhere"
            )
        region = np.flatnonzero(ess.plan_ids == pid)
        if len(region) and not np.allclose(
            cost[region], ess.optimal_cost[region], rtol=1e-9
        ):
            raise ValidationError(
                f"plan {pid} is labelled optimal where it is not"
            )
        # Per-plan PCM.
        plan_surface = cost.reshape(shape)
        for axis in range(grid.num_dims):
            if not (np.diff(plan_surface, axis=axis) > 0).all():
                raise ValidationError(
                    f"plan {pid} violates PCM on axis {axis}"
                )

    # Spill orders must cover every dimension for every plan.
    for pid in deep_ids:
        order = ess.spill_order(pid)
        if sorted(order) != list(range(grid.num_dims)):
            raise ValidationError(
                f"plan {pid} spill order {order} does not cover all epps"
            )

    return {
        "grid_points": grid.num_points,
        "posp_size": ess.posp_size,
        "plans_checked": len(deep_ids),
        "cost_span": (ess.min_cost, ess.max_cost),
    }


def validate_contours(contour_set):
    """Check a contour set: geometric budgets, band partition, nesting."""
    ess = contour_set.ess
    budgets = contour_set.budgets
    if not (np.diff(budgets) > 0).all():
        raise ValidationError("contour budgets are not increasing")
    ratio = contour_set.cost_ratio
    for i in range(1, len(budgets) - 1):
        if not np.isclose(budgets[i], budgets[i - 1] * ratio, rtol=1e-9):
            raise ValidationError(
                f"budget ladder breaks the ratio at contour {i + 1}"
            )
    total = 0
    for contour in contour_set:
        total += len(contour.points)
        if len(contour.points) == 0:
            continue
        costs = ess.optimal_cost[contour.points]
        if (costs > contour.budget * (1 + 1e-9)).any():
            raise ValidationError(
                f"contour {contour.index} holds a location above its budget"
            )
        if contour.index > 1:
            lower = contour_set.budget(contour.index - 1)
            if (costs <= lower * (1 - 1e-9)).any():
                raise ValidationError(
                    f"contour {contour.index} holds a location below the "
                    "previous budget"
                )
    if total != ess.grid.num_points:
        raise ValidationError("contour bands do not partition the grid")
    return {"num_contours": contour_set.num_contours,
            "max_density": contour_set.max_density}
