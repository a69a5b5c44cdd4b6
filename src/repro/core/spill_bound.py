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
from typing import NamedTuple

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


@dataclass(frozen=True, slots=True)
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


def run_starts(values):
    """First position of each run of equal values in ``values``."""
    return np.flatnonzero(
        np.concatenate(([True], values[1:] != values[:-1]))[:len(values)]
    )


class SiblingSlices(NamedTuple):
    """The effective slices (Section 4.2) of sibling states that share
    one learnt-dimension set, laid end to end (empty slices left out)."""

    states: list  # each slice's number in the planner's keys
    learnt: tuple  # the siblings' learnt dimensions
    rows: np.ndarray  # contour rows, slice by slice, ascending within
    starts: np.ndarray  # each slice's first position in ``rows``
    coord: np.ndarray  # the rows' coordinates, every dimension
    spill: np.ndarray  # per row, its plan's first unlearnt spill dim or -1

    def extreme_spillers(self):
        """Per slice and dimension, the position in ``rows`` of the first
        row with the largest ``dim`` coordinate among the slice's rows
        spilling on ``dim`` — ``candidates[argmax(...)]`` for every slice
        at once — or ``-1`` where none does (learnt dimensions too)."""
        num_rows = len(self.rows)
        # One segmented max decides both: the coordinate leads the score
        # and an earlier row breaks ties upward.
        score = np.multiply(self.coord, num_rows + 1, dtype=np.int64)
        score += np.arange(num_rows, 0, -1)[:, None]
        best = np.maximum.reduceat(
            np.where(
                self.spill[:, None] == np.arange(score.shape[1]), score, -1
            ),
            self.starts, axis=0,
        )
        return np.where(best >= 0, num_rows - best % (num_rows + 1), -1)


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
        self._unlearnt_cache = {}
        self._slice_indexes = {}

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
    # Contour step planning: sibling states of one contour, together
    # ------------------------------------------------------------------

    def contour_steps(self, contour_index, learned):
        """The ordered budgeted executions crossing a contour in a state.

        The uniform step interface of the scalar :meth:`run` walk, the
        engine driver and (a level at a time, through :meth:`plan_level`)
        the frontier-batched sweep (:mod:`repro.perf.batch`): each step
        exposes ``exec_dim``, ``budget``, ``learn_idx``, ``curve`` and
        ``penalty``, and an execution at ``qa`` completes iff ``qa``'s
        ``exec_dim`` grid index is ``<= learn_idx`` (charging
        ``curve[idx]``; the budget otherwise).  The level planner with
        one key, for AlignedBound's partition-cover steps too.
        """
        key = tuple(sorted(learned.items()))
        steps = self._step_cache.get((contour_index, key))
        if steps is None:
            steps = self.plan_level(contour_index, (key,))[0]
        return steps

    def plan_level(self, contour_index, learned_keys):
        """:meth:`contour_steps` of sibling states of one contour.

        ``learned_keys`` names each state by its learnt coordinates as a
        sorted ``((dim, index), ...)`` tuple.  The states not planned
        before are planned together (:meth:`_plan_states`) and cached in
        their final order: prior-guided schedules permute a state's
        steps (the same charged set), inert ones keep the planner's.
        """
        cache = self._step_cache
        missing = [key for key in dict.fromkeys(learned_keys)
                   if (contour_index, key) not in cache]
        if missing:
            order = self.prior_schedule().order_steps
            planned = self._plan_states(contour_index, missing)
            for key, steps in zip(missing, planned):
                cache[contour_index, key] = order(steps)
        return [cache[contour_index, key] for key in learned_keys]

    def _plan_states(self, contour_index, learned_keys):
        """SpillBound's crossing of sibling states (Section 3.2).

        Per state and unlearnt epp ``j``, one :class:`SpillStep` at
        ``q_max^j`` — the first location of the state's effective slice
        with the largest ``j`` coordinate among those whose plan spills
        on ``j`` — in ascending ``j``; an empty list where the slice is
        empty or nothing spills.
        """
        plans = [[] for _ in learned_keys]
        contour = self.contours.contour(contour_index)
        budget = self.contours.budget(contour_index)
        for slices in self._sibling_slices(contour, learned_keys):
            first = slices.extreme_spillers()
            slice_no, dims = np.nonzero(first >= 0)
            at = slices.rows[first[slice_no, dims]]
            dims, pids = dims.tolist(), contour.plan_ids[at].tolist()
            qstars = contour.coords[at].tolist()
            curves, reach = self._curves_and_reach(
                dims, pids, qstars, [budget] * len(at),
                [qstar[dim] for qstar, dim in zip(qstars, dims)],
            )
            for number, dim, pid, qstar, learn_idx, curve in zip(
                slice_no.tolist(), dims, pids, qstars, reach, curves
            ):
                plans[slices.states[number]].append(SpillStep(
                    dim, pid, tuple(qstar), budget, learn_idx, curve
                ))
        return plans

    def _sibling_slices(self, contour, learned_keys):
        """The states' effective slices as :class:`SiblingSlices`, one
        per learnt-dimension set with a non-empty slice: the contour
        rows matching some sibling's learnt coordinates exactly."""
        if not len(contour.coords):
            return
        by_dims = {}
        for number, key in enumerate(learned_keys):
            dims, values = zip(*key) if key else ((), ())
            numbers, learnt = by_dims.setdefault(dims, ([], []))
            numbers.append(number)
            learnt.append(values)
        for dims, (numbers, learnt) in by_dims.items():
            order, codes, bounds, radix = self._slice_index(contour, dims)
            want = np.asarray(learnt, dtype=np.int64).reshape(
                len(learnt), len(dims)) @ radix
            # Every code fits the index's dtype: values are grid indices.
            pos = np.searchsorted(codes, want.astype(codes.dtype))
            pos = np.minimum(pos, len(codes) - 1)
            hit = np.flatnonzero(codes[pos] == want)
            if not len(hit):
                continue
            states = [numbers[i] for i in hit.tolist()]
            pos = pos[hit]
            pieces = [order[low:high] for low, high in zip(
                bounds[pos].tolist(), bounds[pos + 1].tolist())]
            rows = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
            yield SiblingSlices(
                states,
                dims,
                rows,
                np.cumsum([0] + [len(piece) for piece in pieces[:-1]]),
                contour.coords.take(rows, axis=0),
                self._first_unlearnt(dims)[contour.plan_ids.take(rows)],
            )

    def _slice_index(self, contour, dims):
        """The contour's rows grouped by their coordinates on ``dims``.

        Returns ``(order, codes, bounds, radix)``: the row numbers
        sorted (stably, so rows ascend within a group) by the
        mixed-radix code ``coords[:, dims] @ radix``, the codes present
        in ascending order, and per code ``codes[k]`` its run
        ``order[bounds[k]:bounds[k + 1]]`` — every possible sibling's
        effective slice.  ``order``, ``codes`` and ``bounds`` are the
        narrowest integers that hold them, a few bytes a row: the scalar
        walk meets a dimension set again with other coordinates, and
        then pays one ``searchsorted``.
        """
        cached = self._slice_indexes.get((contour.index, dims))
        if cached is None:
            resolution = self.ess.grid.resolution
            radix = [1] * len(dims)
            for k in range(len(dims) - 1, 0, -1):
                radix[k - 1] = radix[k] * resolution[dims[k]]
            code = np.zeros(len(contour.coords), dtype=np.int64)
            for dim, weight in zip(dims, radix):
                code += contour.coords[:, dim] * weight
            space = radix[0] * resolution[dims[0]] if dims else 1
            code = code.astype(np.min_scalar_type(space))
            # numpy's stable sort is a radix sort on narrow integers.
            order = np.argsort(code, kind="stable") if dims \
                else np.arange(len(code))
            code = code[order]
            starts = run_starts(code)
            cached = self._slice_indexes[contour.index, dims] = (
                order.astype(np.min_scalar_type(len(order))),
                code[starts],
                np.append(starts, len(code)).astype(
                    np.min_scalar_type(len(code))),
                np.asarray(radix, dtype=np.int64),
            )
        return cached

    def _first_unlearnt(self, dims):
        """Per POSP plan, the first dimension of its spill order outside
        ``dims`` (``-1`` where the whole order is learnt) — the
        vectorized :meth:`~repro.ess.ocs.ESS.spill_dimension`, cached
        per dimension set until the POSP grows (lazy surfaces)."""
        orders = self.ess.spill_order_matrix()
        cached = self._unlearnt_cache.get(dims)
        if cached is None or len(cached) != len(orders):
            valid = orders >= 0
            for dim in dims:
                valid &= orders != dim
            first = valid.argmax(axis=1)
            plans = np.arange(len(orders))
            cached = self._unlearnt_cache[dims] = np.where(
                valid[plans, first], orders[plans, first], -1
            )
        return cached

    def _curves_and_reach(self, dims, pids, locations, budgets, floors):
        """Each planned execution's spill curve and learnable index,
        given its spilled dimension, plan and location: one
        :meth:`~repro.ess.ocs.ESS.spill_cost_curves` call, and one
        threshold search per distinct (curve, budget) — sibling states
        mostly share both."""
        curves = self.ess.spill_cost_curves(pids, dims, locations)
        searched = {}
        reach = []
        for curve, budget, floor in zip(curves, budgets, floors):
            idx = searched.get((id(curve), budget))
            if idx is None:
                idx = searched[id(curve), budget] = learnable_index(
                    curve, budget, 0
                )
            # Lemma 3.1's floor (see learnable_index) is per location.
            reach.append(max(idx, floor))
        return curves, reach

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
