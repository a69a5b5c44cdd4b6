"""Rival plan-selection algorithms for the arena.

Each rival is an *estimate-then-execute* strategy like the native
optimizer, but instead of trusting the estimate blindly it scores every
candidate plan under a configurable selectivity-error profile
(:mod:`repro.arena.profiles`) and commits to the winner:

* :class:`PenaltyAwareSelector` — PARQO-style (Xiu et al.): minimize
  the *expected penalty* ``E[Cost(P, q) - Cost(P_q, q)]`` under the
  profile's scenario distribution;
* :class:`MinmaxRegretSelector` — Alyoubi et al.: minimize the *worst*
  regret ``max_q (Cost(P, q) - Cost(P_q, q))`` over the profile's
  support;
* :class:`ProbabilisticSelector` — Kamali et al.-style probabilistic
  plan evaluation: score each plan by its mean sub-optimality over a
  seeded Monte-Carlo draw of scenario locations.

All three expose the same interface as the discovery algorithms —
``run(qa, trace=False) -> DiscoveryResult``, ``evaluate_all()``, an
``ess`` / ``contours`` pair — so :func:`~repro.core.mso.evaluate_algorithm`,
the batch and parallel sweep engines, and the conformance monitors work
on them unmodified.  They deliberately do **not** define
``mso_guarantee``: a fixed-plan strategy has no worst-case bound (that
is the point of the arena), and the monitors exempt guarantee checks
for algorithms without one.

Selection ties break on the canonical plan *key*, never the surface-
local plan id — so the chosen plan is invariant under plan relabeling
(pinned by the metamorphic tests).
"""

from __future__ import annotations

import numpy as np

from repro.arena.profiles import as_profile
from repro.core.discovery import (
    SimulatedExecutor,
    bouquet_ascent,
    normalize_location,
)
from repro.perf.batch import register_batch_engine


class FixedPlanRival:
    """Shared machinery: score plans under the profile, run the winner.

    Args:
        ess: the built ESS (eager or lazy).
        contour_set: optional contours — unused by the strategy itself,
            but carried so rivals expose the same ``ess`` / ``contours``
            pair as the stock algorithms.
        profile: an :class:`~repro.arena.profiles.ErrorProfile`, its
            ``spec()`` tuple, or None for the arena default.
        estimate: the estimate ``qe`` (flat index, coords tuple, or
            selectivity vector); default the grid origin — the
            optimistic all-independent estimate the native baseline
            uses.
    """

    def __init__(self, ess, contour_set=None, profile=None, estimate=None):
        self.ess = ess
        self.contours = contour_set
        self.profile = as_profile(profile)
        if estimate is None:
            estimate = ess.grid.origin
        self._qe_coords, self._qe_flat = normalize_location(
            ess.grid, estimate)
        self._plan_id = None

    # -- selection -----------------------------------------------------

    def _score(self, costs, optimal, weights):
        raise NotImplementedError

    def candidate_plan_ids(self, flats):
        """Plans optimal somewhere in the scenario set — the candidate
        pool a re-optimizing selector would actually see."""
        self.ess.resolve(flats)
        return [int(p) for p in np.unique(np.asarray(
            self.ess.plan_ids[flats], dtype=np.int64))]

    @property
    def plan_id(self):
        """The committed plan (selected once, cached)."""
        if self._plan_id is None:
            self._plan_id = self._select()
        return self._plan_id

    def _select(self):
        ess = self.ess
        flats, weights = self.profile.support(ess.grid, self._qe_coords)
        optimal = ess.optimal_cost_at(flats)
        scored = []
        for pid in self.candidate_plan_ids(flats):
            costs = np.asarray(ess.plan_cost_at_points(pid, flats),
                               dtype=float)
            scored.append((float(self._score(costs, optimal, weights)),
                           ess.plan_keys[pid], pid))
        return min(scored)[2]

    # -- the evaluate_algorithm / sweep-engine interface ---------------

    def run(self, qa, trace=False):
        """Execute the committed plan to completion at ``qa``."""
        executor = SimulatedExecutor(self.ess, qa, trace)
        return executor.result(*bouquet_ascent(
            executor, [(0, float("inf"), self.plan_id)]))

    def evaluate_all(self):
        """Vectorized full-grid sub-optimality (loop-bit-identical)."""
        self.ess.resolve_all()
        return (
            np.asarray(self.ess.plan_cost_array(self.plan_id), dtype=float)
            / np.asarray(self.ess.optimal_cost, dtype=float)
        )

    def __repr__(self):
        return (f"{type(self).__name__}(qe={self._qe_coords}, "
                f"profile={self.profile.spec()})")


class PenaltyAwareSelector(FixedPlanRival):
    """PARQO-style expected-penalty minimization."""

    def _score(self, costs, optimal, weights):
        return np.sum(weights * (costs - optimal))


class MinmaxRegretSelector(FixedPlanRival):
    """Minmax-regret selection over the profile's scenario support."""

    def _score(self, costs, optimal, weights):
        return np.max(costs - optimal)


class ProbabilisticSelector(FixedPlanRival):
    """Probabilistic plan evaluation by seeded scenario sampling."""

    #: Monte-Carlo draws per selection (seeded — selection stays
    #: deterministic, bit-identical across engines and workers).
    NUM_SAMPLES = 64

    def _sample_indices(self, num_scenarios, weights):
        rng = np.random.default_rng([0xA3E2A, int(self._qe_flat)])
        return rng.choice(num_scenarios, size=self.NUM_SAMPLES, p=weights)

    def _score(self, costs, optimal, weights):
        idx = self._sample_indices(costs.size, weights)
        return np.mean(costs[idx] / optimal[idx])


def _sweep_fixed_plan(algorithm, flats):
    """Batched sweep engine for fixed-plan rivals: one gather.

    Mirrors the stock engines' contract — a full-grid *total charged
    cost* array, filled at the requested flats; the shared
    ``batched_suboptimality`` wrapper divides by the optimal cost so
    the result is bit-identical to the per-location ``run`` loop.
    """
    total = np.zeros(algorithm.ess.grid.num_points, dtype=float)
    flats = np.asarray(flats, dtype=np.int64)
    total[flats] = algorithm.ess.plan_cost_at_points(
        algorithm.plan_id, flats)
    return total


#: Lineup names the arena report resolves rivals by.
RIVAL_FACTORIES = {
    "penalty": PenaltyAwareSelector,
    "regret": MinmaxRegretSelector,
    "sampling": ProbabilisticSelector,
}

for _cls in RIVAL_FACTORIES.values():
    register_batch_engine(_cls, _sweep_fixed_plan)
