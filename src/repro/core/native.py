"""The traditional-optimizer baseline.

A native optimizer estimates a location ``qe`` from catalog statistics
and runs the single plan ``P_qe`` to completion, whatever ``qa`` turns
out to be.  Its sub-optimality profile over the ESS is the yardstick the
discovery algorithms are measured against (paper Sections 1, 6.3, 6.5 —
e.g. the JOB experiment where the native MSO exceeds 6000 while
SpillBound stays near 12).
"""

from __future__ import annotations

import numpy as np

from repro.core.discovery import (
    SimulatedExecutor,
    bouquet_ascent,
    normalize_location,
)


class NativeOptimizer:
    """Estimate-then-execute baseline over a built ESS.

    The ESS already holds every POSP plan's cost surface, so the
    baseline's behaviour for *any* (estimate, actual) pair is a pair of
    array lookups.
    """

    def __init__(self, ess):
        self.ess = ess

    def plan_for_estimate(self, qe):
        """The plan id a traditional optimizer would pick at estimate qe."""
        _, flat = normalize_location(self.ess.grid, qe)
        return int(self.ess.plan_ids[flat])

    def estimate_location(self, catalog):
        """The estimate ``qe`` a traditional optimizer would produce.

        Each epp's selectivity comes from the statistics catalog
        (``1/max(ndv)`` for joins — the uniformity rule), snapped to the
        grid.  This is the realistic alternative to the optimistic
        origin default: the estimate a deployed engine would actually
        plan with.
        """
        estimates = []
        for pred in self.ess.query.epps:
            if hasattr(pred, "left_table"):
                estimates.append(catalog.estimate_join(
                    pred.left_table, pred.left_column,
                    pred.right_table, pred.right_column,
                ))
            else:
                estimates.append(catalog.estimate_filter(
                    pred.table, pred.column,
                    value=pred.value if pred.op == "=" else None,
                    high=pred.value if pred.op in ("<", "<=") else None,
                ))
        return self.ess.grid.snap(estimates)

    def suboptimality(self, qe, qa):
        """``SubOpt(qe, qa)`` — paper Equation (1)."""
        pid = self.plan_for_estimate(qe)
        _, qa_flat = normalize_location(self.ess.grid, qa)
        return float(
            self.ess.plan_cost_at(pid, qa_flat) / self.ess.optimal_cost[qa_flat]
        )

    def run(self, qa, qe=None, trace=False):
        """Execute with estimate ``qe`` (default: the ESS origin, the
        optimistic all-independent estimate) against actual ``qa``."""
        pid = self.plan_for_estimate(
            self.ess.grid.origin if qe is None else qe)
        executor = SimulatedExecutor(self.ess, qa, trace)
        # One regular-mode execution, run to the end.
        return executor.result(*bouquet_ascent(
            executor, [(0, float("inf"), pid)]))

    # ------------------------------------------------------------------
    # Exhaustive profiles
    # ------------------------------------------------------------------

    def suboptimality_for_estimate(self, qe):
        """``(N,)`` array: SubOpt(qe, qa) for every actual location."""
        pid = self.plan_for_estimate(qe)
        return self.ess.plan_cost_array(pid) / self.ess.optimal_cost

    def mso(self):
        """Worst case over *all* (qe, qa) pairs — paper Equation (2).

        Every POSP plan is optimal somewhere, so the max over plans of
        the plan's worst sub-optimality equals the max over estimates.
        """
        worst = 1.0
        for pid in range(self.ess.posp_size):
            surface = self.ess.suboptimality_surface(pid)
            worst = max(worst, float(surface.max()))
        return worst

    def aso(self, qe=None):
        """Average sub-optimality for a fixed estimate (default origin)."""
        grid = self.ess.grid
        if qe is None:
            qe = grid.origin
        return float(self.suboptimality_for_estimate(qe).mean())

    def worst_pair(self):
        """The ``(qe_coords, qa_coords, suboptimality)`` achieving MSO."""
        best = (None, None, 1.0)
        for pid in range(self.ess.posp_size):
            surface = self.ess.suboptimality_surface(pid)
            qa_flat = int(np.argmax(surface))
            value = float(surface[qa_flat])
            if value > best[2]:
                qe_flat = int(np.argmax(self.ess.plan_ids == pid))
                best = (
                    self.ess.grid.coords_of(qe_flat),
                    self.ess.grid.coords_of(qa_flat),
                    value,
                )
        return best
