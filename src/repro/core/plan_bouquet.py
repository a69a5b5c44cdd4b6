"""The PlanBouquet algorithm [Dutt & Haritsa, TODS 2016].

The baseline the paper improves upon.  PlanBouquet ascends the iso-cost
contours and, on each contour, executes *every* (anorexically reduced)
contour plan in regular mode under the contour's (inflated) cost budget,
until one completes.  Its guarantee is *behavioural*:
``MSO <= 4 * (1 + lambda) * rho`` where ``rho`` is the densest reduced
contour — a quantity that depends on the optimizer and platform, which
is exactly the drawback SpillBound removes.
"""

from __future__ import annotations

from repro.core.discovery import (
    SimulatedExecutor,
    bouquet_ascent,
    sweep_suboptimality,
)
from repro.errors import DiscoveryError
from repro.ess.contours import DEFAULT_COST_RATIO, ContourSet
from repro.ess.reduction import DEFAULT_LAMBDA, AnorexicReduction


class PlanBouquet:
    """Contour-wise trial-and-error execution of the plan bouquet.

    Args:
        ess: the built :class:`~repro.ess.ocs.ESS`.
        contour_set: optional prebuilt contours (shared across algorithms).
        lam: anorexic-reduction threshold (paper default 0.2).
        cost_ratio: contour cost ratio (paper default 2 — optimal for
            PlanBouquet per [Dutt & Haritsa]).
    """

    def __init__(self, ess, contour_set=None, lam=DEFAULT_LAMBDA,
                 cost_ratio=DEFAULT_COST_RATIO, prior=None):
        from repro.prior import as_prior

        self.ess = ess
        self.contours = contour_set or ContourSet(ess, cost_ratio)
        self.reduction = AnorexicReduction(ess, self.contours, lam)
        self.lam = lam
        self.prior = as_prior(prior)
        self._prior_schedule = None

    def prior_schedule(self):
        """The prior discretized onto this surface's ladder (lazy)."""
        if self._prior_schedule is None:
            from repro.prior import PriorSchedule

            self._prior_schedule = PriorSchedule(
                self.prior, self.ess, self.contours
            )
        return self._prior_schedule

    def contour_plans(self, rc):
        """A reduced contour's plans in execution order.

        The uniform hook shared with the batched sweep engine: the
        reduction's deterministic order when the prior is inert, the
        prior's descending-mass order (cached inside the schedule)
        otherwise — a permutation of the same budget-executed set, so
        the ``4(1+lambda)rho`` accounting is untouched.
        """
        return self.prior_schedule().order_plan_ids(rc)

    # ------------------------------------------------------------------
    # Guarantees
    # ------------------------------------------------------------------

    @property
    def rho(self):
        """Reduced maximum contour density (the bound parameter)."""
        return self.reduction.rho

    def mso_guarantee(self):
        """The behavioural bound ``4 * (1 + lambda) * rho``."""
        return self.reduction.mso_guarantee()

    def bouquet_plan_ids(self):
        """All plans in the (reduced) bouquet."""
        ids = []
        for rc in self.reduction.reduced:
            for pid in rc.plan_ids:
                if pid not in ids:
                    ids.append(pid)
        return ids

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------

    def trials(self, start_contour=1):
        """The bouquet's ``(contour, inflated budget, plan id)`` trial
        sequence from ``start_contour`` up, each reduced contour's plans
        in :meth:`contour_plans` order."""
        for rc in self.reduction.reduced:
            if rc.index >= start_contour:
                budget = rc.inflated_budget
                for pid in self.contour_plans(rc):
                    yield rc.index, budget, pid

    def run(self, qa, trace=False):
        """Process a query whose actual location is ``qa``: the budgeted
        bouquet ascent of :mod:`repro.core.discovery` over :meth:`trials`.

        Returns a :class:`~repro.core.discovery.DiscoveryResult`.
        """
        executor = SimulatedExecutor(self.ess, qa, trace)
        # Prior-guided start at min(target, band(qa)): qa is itself a
        # point of the starting band, so the anorexic cover guarantees
        # a completion there, and the charges are a contiguous suffix
        # of the ladder sum the 4(1+lambda)rho proof already bounds.
        start = self.prior_schedule().start_for(executor.flat)
        outcome = bouquet_ascent(executor, self.trials(start))
        if outcome[-1] is None:
            raise DiscoveryError(
                f"PlanBouquet failed to complete at {executor.coords} — "
                "reduction cover does not reach the query's contour "
                "(inconsistent state)"
            )
        return executor.result(*outcome)

    def evaluate_all(self, points=None):
        """Exhaustive sweep: sub-optimality for every ``qa``, or for the
        flat indices in ``points`` — one boolean-mask pass per bouquet
        plan per contour in the batched engine
        (:func:`~repro.core.discovery.sweep_suboptimality`)."""
        return sweep_suboptimality(self, points)
