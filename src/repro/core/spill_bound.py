"""The SpillBound algorithm (paper Sections 3 and 4).

SpillBound keeps PlanBouquet's contour-wise discovery skeleton but
crosses each contour with at most ``|EPP|`` *spill-mode* executions:

1. For every unlearned epp ``j``, find — among the contour locations
   whose optimal plan spills on ``j`` — the location ``q_max^j`` with
   the largest ``j`` coordinate; its plan is ``P_max^j``
   (Section 3.2, Figure 5).
2. Execute each ``P_max^j`` in spill mode with the contour budget.  By
   half-space pruning (Lemma 3.1) each execution either *fully learns*
   the epp's selectivity or proves ``qa.j > q_max^j.j``; if all fail,
   ``qa`` lies beyond the contour (Lemma 3.2 / 4.3) and the search jumps.
3. When a single epp remains, the problem is 1-D and the classic
   PlanBouquet takes over from the current contour (spilling weakens
   the bound in 1-D, Section 4.1).

The resulting guarantee is *structural*: ``MSO <= D^2 + 3D``,
independent of optimizer and platform.

Implementation notes
--------------------
The per-``qa`` simulation is driven by *discovery states*
``(contour index, learned-coordinates)``.  Everything an execution's
outcome depends on — the chosen plan, the budget, and the spill-subtree
cost curve along the spilled dimension — is a function of the state
alone, so states are computed once and cached; exhaustive MSO evaluation
over the whole grid then reduces to cheap threshold comparisons per
location.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.discovery import (
    BUDGET_EPS,
    SimulatedExecutor,
    discover,
    sweep_suboptimality,
)
from repro.ess.contours import DEFAULT_COST_RATIO, ContourSet

_EPS = BUDGET_EPS


def band_trials(bands, plan_ids):
    """Trial order of the 1-D bouquet along effective lines (vectorized).

    The classic tail executes, per contour in ascending order, each plan
    optimal somewhere in that contour's slice of the line — ordered by
    the plan's first position along the line, each plan tried once per
    contour.  This function derives exactly that (band, plan) trial
    sequence for ``S`` lines at once.

    Args:
        bands: ``(S, R)`` int array, 0-based contour band per position.
        plan_ids: ``(S, R)`` int array, optimal plan per position.

    Returns:
        ``(line, band, pid)`` int64 arrays in trial order: line-major,
        then band-major, then first-occurrence position within the band.
        Both the scalar tail's trial sequence
        (:meth:`SpillBound.tail_trials`) and the batched engine's global
        tail drain are derived from this single implementation.
    """
    bands = np.ascontiguousarray(bands, dtype=np.int64)
    plan_ids = np.ascontiguousarray(plan_ids, dtype=np.int64)
    num_lines, length = bands.shape
    flat_bands = bands.reshape(-1)
    flat_pids = plan_ids.reshape(-1)
    line = np.repeat(np.arange(num_lines, dtype=np.int64), length)
    num_bands = int(flat_bands.max()) + 1 if flat_bands.size else 1
    num_pids = int(flat_pids.max()) + 1 if flat_pids.size else 1
    # Stable sort on (line, band, pid) keeps position order within each
    # key, so dropping duplicate keys keeps each plan's first position.
    key = (line * num_bands + flat_bands) * num_pids + flat_pids
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    keep = np.empty(sorted_key.size, dtype=bool)
    if keep.size:
        keep[0] = True
        keep[1:] = sorted_key[1:] != sorted_key[:-1]
    first = order[keep]
    # Re-rank the surviving trials by position within (line, band).
    final = first[np.lexsort((first % length, flat_bands[first], line[first]))]
    return line[final], flat_bands[final], flat_pids[final]


@dataclass(frozen=True)
class SpillStep:
    """A planned spill-mode execution for one epp on one contour.

    Attributes:
        dim: the ESS dimension to learn.
        plan_id: the chosen ``P_max^dim``.
        qstar_coords: the ``q_max^dim`` location (full coords tuple).
        budget: execution budget (the contour cost, or more for
            AlignedBound replacements).
        learn_idx: the largest grid index along ``dim`` whose spill
            subtree cost fits the budget — execution completes iff
            ``qa``'s index is <= this (and then the epp is fully learnt).
        curve: spill-subtree cost per grid index along ``dim`` (the
            charge on completion).
        penalty: replacement penalty (always 1.0 for SpillBound).
    """

    dim: int
    plan_id: int
    qstar_coords: tuple
    budget: float
    learn_idx: int
    curve: np.ndarray
    penalty: float = 1.0

    @property
    def exec_dim(self):
        """The dimension this execution learns (uniform step interface
        shared with AlignedBound's :class:`PartStep`)."""
        return self.dim


def learnable_index(curve, budget, floor_idx):
    """Largest grid index whose spill cost fits ``budget``.

    ``floor_idx`` enforces Lemma 3.1's guarantee: the spill cost at the
    chosen contour location itself is within the budget by construction,
    so learning reaches at least that coordinate (the clamp only absorbs
    floating-point slack).
    """
    idx = int(np.searchsorted(curve, budget * (1.0 + _EPS), side="right")) - 1
    return max(idx, int(floor_idx))


class SpillBound:
    """Per-query SpillBound executor/simulator.

    Args:
        ess: the built :class:`~repro.ess.ocs.ESS`.
        contour_set: optional prebuilt :class:`ContourSet`.
        cost_ratio: contour spacing when building contours here.
    """

    def __init__(self, ess, contour_set=None, cost_ratio=DEFAULT_COST_RATIO,
                 prior=None):
        from repro.prior import as_prior

        self.ess = ess
        self.contours = contour_set or ContourSet(ess, cost_ratio)
        self.prior = as_prior(prior)
        self._prior_schedule = None
        self._step_cache = {}
        self._line_cache = {}
        self._effective_cache = {}
        self._cost_surfaces = {}

    def prior_schedule(self):
        """The prior discretized onto this surface's ladder (lazy)."""
        if self._prior_schedule is None:
            from repro.prior import PriorSchedule

            self._prior_schedule = PriorSchedule(
                self.prior, self.ess, self.contours
            )
        return self._prior_schedule

    # ------------------------------------------------------------------
    # Guarantees
    # ------------------------------------------------------------------

    @property
    def num_dims(self):
        return self.ess.grid.num_dims

    def mso_guarantee(self):
        """The structural bound (Theorem 4.5), ratio-aware.

        ``D^2 + 3D`` for the default cost-doubling contours; for other
        ratios the generalized bound of :mod:`repro.core.bounds`.  Known
        by query inspection alone — no ESS preprocessing needed.
        """
        from repro.core.bounds import sb_mso_bound

        return sb_mso_bound(self.num_dims, self.contours.cost_ratio)

    @staticmethod
    def mso_guarantee_for(num_epps, cost_ratio=2.0):
        """``D^2 + 3D`` (at doubling) for an epp count, no ESS required."""
        from repro.core.bounds import sb_mso_bound

        return sb_mso_bound(num_epps, cost_ratio)

    # ------------------------------------------------------------------
    # Contour step planning (cached per discovery state)
    # ------------------------------------------------------------------

    def _state_key(self, contour_index, learned):
        return contour_index, tuple(sorted(learned.items()))

    def _effective_contour(self, contour_index, learned):
        """Contour locations matching the learnt coordinates exactly.

        Returns ``(coords_matrix, plan_ids)`` of the effective search
        space (paper Section 4.2), possibly empty.  Cached per state and
        computed incrementally — a state's arrays are the parent state's
        (one fewer learnt coordinate) masked by the newest constraint,
        so repeated exhaustive sweeps never re-mask the full contour.
        """
        if not learned:
            contour = self.contours.contour(contour_index)
            return contour.coords, contour.plan_ids
        items = tuple(sorted(learned.items()))
        key = (contour_index, items)
        cached = self._effective_cache.get(key)
        if cached is None:
            dim, idx = items[-1]
            coords, plan_ids = self._effective_contour(
                contour_index, dict(items[:-1])
            )
            if len(coords):
                mask = coords[:, dim] == idx
                coords = coords[mask]
                plan_ids = plan_ids[mask]
            cached = (coords, plan_ids)
            self._effective_cache[key] = cached
        return cached

    def _cost_surface(self, plan_id):
        """A plan's full-grid cost surface as a plain float array.

        Thin ref cache over :meth:`~repro.ess.ocs.ESS.plan_cost_array`:
        the replacement searches and the batched tail drain gather from
        these surfaces thousands of times per sweep, and the ESS cache's
        per-hit LRU bookkeeping dominated those lookups.
        """
        arr = self._cost_surfaces.get(plan_id)
        if arr is None:
            arr = np.asarray(self.ess.plan_cost_array(plan_id), dtype=float)
            self._cost_surfaces[plan_id] = arr
        return arr

    def _point_spill(self, plan_ids, learned):
        """First unlearned spill dimension per contour location.

        Vectorized equivalent of calling
        :meth:`~repro.ess.ocs.ESS.spill_dimension` per location
        (``-1`` where the plan's whole spill order is already learnt).
        """
        orders = self.ess.spill_order_matrix()[plan_ids]
        valid = orders >= 0
        for dim in learned:
            valid &= orders != dim
        first = valid.argmax(axis=1)
        rows = np.arange(len(orders))
        return np.where(valid[rows, first], orders[rows, first], -1)

    def _plan_steps(self, contour_index, learned):
        """The ``{dim: SpillStep}`` map for a discovery state (cached)."""
        key = self._state_key(contour_index, learned)
        cached = self._step_cache.get(key)
        if cached is not None:
            return cached

        coords, plan_ids = self._effective_contour(contour_index, learned)
        steps = {}
        if len(coords):
            remaining = [d for d in range(self.num_dims) if d not in learned]
            point_spill = self._point_spill(plan_ids, learned)
            budget = self.contours.budget(contour_index)
            for dim in remaining:
                candidates = np.flatnonzero(point_spill == dim)
                if len(candidates) == 0:
                    continue  # no plan on this contour spills on dim: skip
                best = candidates[int(np.argmax(coords[candidates, dim]))]
                qstar = tuple(int(c) for c in coords[best])
                pid = int(plan_ids[best])
                curve = self.ess.spill_cost_curve(pid, dim, qstar)
                steps[dim] = SpillStep(
                    dim=dim,
                    plan_id=pid,
                    qstar_coords=qstar,
                    budget=budget,
                    learn_idx=learnable_index(curve, budget, qstar[dim]),
                    curve=curve,
                )
        self._step_cache[key] = steps
        return steps

    def contour_steps(self, contour_index, learned):
        """The ordered budgeted executions crossing a contour in a state.

        The uniform step interface consumed by both the scalar
        :meth:`run` walk and the frontier-batched sweep engine
        (:mod:`repro.perf.batch`): each step exposes ``exec_dim``,
        ``budget``, ``learn_idx``, ``curve`` and ``penalty``, and an
        execution at actual location ``qa`` completes iff
        ``qa``'s ``exec_dim`` grid index is ``<= learn_idx`` (charging
        ``curve[idx]``; the budget otherwise).  AlignedBound overrides
        this with its partition-cover steps.
        """
        steps = self._plan_steps(contour_index, learned)
        ordered = [steps[key] for key in sorted(steps)]
        # Prior-guided within-contour ordering (a permutation of the
        # same charged set, so the MSO accounting is untouched); inert
        # schedules return the list unchanged.
        return self.prior_schedule().order_steps(ordered)

    # ------------------------------------------------------------------
    # The 1-D PlanBouquet tail
    # ------------------------------------------------------------------

    def tail_trials(self, free_dim, learned, start_contour):
        """``(contour, budget, plan id)`` trials of the classic bouquet
        over the remaining single dimension, from ``start_contour`` up.

        Per contour in ascending order, each plan optimal somewhere in
        that contour's slice of the 1-D effective line under the contour
        budget, ordered by ascending position (origin-first, the
        bouquet's ascending-cost execution order).  Cached per line.
        """
        key = (free_dim, tuple(sorted(learned.items())))
        trials = self._line_cache.get(key)
        if trials is None:
            line = self.ess.grid.line_indices(learned, free_dim)
            _, bands, pids = band_trials(
                self.contours.band[line][None, :],
                self.ess.plan_ids[line][None, :],
            )
            trials = [
                (band + 1, self.contours.budget(band + 1), pid)
                for band, pid in zip(bands.tolist(), pids.tolist())
            ]
            self._line_cache[key] = trials
        return (trial for trial in trials if trial[0] >= start_contour)

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------

    def run(self, qa, trace=False):
        """Process a query located at ``qa`` (Algorithm 1): the shared
        walk of :mod:`repro.core.discovery` over :meth:`contour_steps`.

        Returns a :class:`~repro.core.discovery.DiscoveryResult`.
        """
        executor = SimulatedExecutor(self.ess, qa, trace)
        # Prior-guided starting contour: min(target, band(qa)) — never
        # above the band holding qa, so only guaranteed kills are
        # skipped and the ladder accounting is verbatim (1 when the
        # prior is inert).
        start = self.prior_schedule().start_for(executor.flat)
        return executor.result(*discover(self, executor, start))

    def evaluate_all(self, points=None):
        """Exhaustive sweep: sub-optimality for every grid location, or
        for the flat indices in ``points``
        (:func:`~repro.core.discovery.sweep_suboptimality`)."""
        return sweep_suboptimality(self, points)
