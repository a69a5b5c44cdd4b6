"""The AlignedBound algorithm (paper Section 5).

AlignedBound narrows SpillBound's quadratic-to-linear MSO gap by
exploiting *alignment*:

* **Contour alignment** — a contour is aligned along dimension ``j``
  when an extreme-``j`` location's optimal plan spills on ``j``; then a
  *single* spill execution makes quantum progress (Lemma 3.3).
* **Induced alignment** — when alignment does not hold natively, the
  optimal plan at an extreme location may be *replaced* by the cheapest
  plan that spills on the wanted dimension, at a penalty
  ``Cost(replacement)/CC_i``.
* **Predicate-set alignment (PSA)** — the finer-grained version: a set
  ``T`` of epps satisfies PSA with leader ``j`` when every contour
  location spilling on a dimension in ``T`` has its ``j`` coordinate
  bounded by the leader location's.  A partition of the unlearned epps
  into PSA parts crosses the contour with one execution per part
  (Lemma 5.3), and the paper shows it suffices to search *partition*
  covers (Section 5.2.2).

Per contour, AlignedBound picks the partition with the minimum total
penalty ``pi*`` and executes one (possibly replacement) plan per part.
Its guarantee is ``MSO in [2D + 2, D^2 + 3D]``.

Replacement-plan pool: the paper adds an engine feature returning "a
least cost plan from optimizer which spills on a user-specified epp";
our simulation searches the POSP plan pool for the cheapest plan whose
spill order leads with the wanted dimension — the same plans the
bouquet machinery can execute (documented substitution, DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.spill_bound import SpillBound, learnable_index
from repro.errors import DiscoveryError
from repro.ess.contours import DEFAULT_COST_RATIO


def set_partitions(items):
    """Yield all set partitions of ``items`` (each a list of tuples).

    Standard recursive enumeration (Bell(6) = 203, so exhaustive search
    is cheap at the paper's dimensionalities).
    """
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partial in set_partitions(rest):
        # first joins an existing part...
        for k, part in enumerate(partial):
            yield partial[:k] + [(first,) + part] + partial[k + 1:]
        # ...or starts its own.
        yield [(first,)] + partial


@dataclass(frozen=True)
class PartStep:
    """One part of the chosen partition: a single spill execution.

    ``dims`` is the part ``T``; ``leader`` its leader dimension; the
    remaining fields mirror :class:`~repro.core.spill_bound.SpillStep`.
    ``native`` records whether PSA held without a plan replacement.
    """

    dims: tuple
    leader: int
    plan_id: int
    location: tuple
    budget: float
    learn_idx: int
    curve: np.ndarray
    penalty: float
    native: bool

    @property
    def exec_dim(self):
        """The dimension this execution learns (uniform step interface
        shared with SpillBound's :class:`~repro.core.spill_bound.SpillStep`)."""
        return self.leader


class AlignedBound(SpillBound):
    """AlignedBound executor/simulator (Algorithm 2).

    Shares SpillBound's state-cached contour machinery and 1-D tail;
    overrides the per-contour crossing strategy with the partition-cover
    search.
    """

    def __init__(self, ess, contour_set=None, cost_ratio=DEFAULT_COST_RATIO,
                 prior=None):
        super().__init__(ess, contour_set, cost_ratio, prior=prior)
        self._part_cache = {}
        self._partition_cache = {}
        self._spiller_pool_cache = {}
        #: Largest replacement penalty seen across all runs (Table 4).
        self.observed_max_penalty = 1.0

    # ------------------------------------------------------------------
    # Guarantees
    # ------------------------------------------------------------------

    def mso_guarantee(self):
        """Upper end of the AlignedBound range (``D^2 + 3D``)."""
        return SpillBound.mso_guarantee(self)

    def mso_guarantee_range(self):
        """The platform-independent range ``[2D + 2, D^2 + 3D]``
        (generalized to the contour ratio in use)."""
        from repro.core.bounds import ab_mso_bound_range

        return ab_mso_bound_range(self.num_dims, self.contours.cost_ratio)

    # ------------------------------------------------------------------
    # Replacement plan pool
    # ------------------------------------------------------------------

    def _local_plans(self, contour_index):
        """Plan ids optimal in the contour's cost neighbourhood.

        Replacement candidates are drawn from plans optimal in bands
        ``i-1 .. i+1``: a plan whose optimality region sits at this cost
        scale is the only kind whose replacement penalty can be small,
        and restricting the pool keeps the search tractable on large
        POSPs (the engine feature this simulates — "least cost plan that
        spills on a chosen epp" — is likewise a local re-optimization).
        """
        cached = self._spiller_pool_cache.get(("local", contour_index))
        if cached is None:
            ids = []
            lo = max(1, contour_index - 1)
            hi = min(self.contours.num_contours, contour_index + 1)
            for index in range(lo, hi + 1):
                for pid in self.contours.contour(index).unique_plan_ids():
                    if pid not in ids:
                        ids.append(pid)
            cached = ids
            self._spiller_pool_cache[("local", contour_index)] = cached
        return cached

    def _spiller_pool(self, dim, remaining_key, contour_index):
        """Contour-local plans whose spill order (under ``remaining``)
        leads with ``dim`` — the candidate replacements ``P_dim``."""
        key = (dim, remaining_key, contour_index)
        cached = self._spiller_pool_cache.get(key)
        if cached is None:
            remaining = list(remaining_key)
            cached = [
                pid for pid in self._local_plans(contour_index)
                if self.ess.spill_dimension(pid, remaining) == dim
            ]
            self._spiller_pool_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    # PSA per part
    # ------------------------------------------------------------------

    def _seed_singleton_parts(self, contour_index, learned_key, active,
                              coords, plan_ids, point_spill):
        """Precompute every singleton part's step in one vectorized pass.

        A singleton part's PSA always holds natively (each member spills
        on the part's only dimension), so its step only needs the first
        extreme-coordinate member per dimension — one masked argmax over
        an ``(active, contour)`` matrix resolves all of them at once,
        instead of a mask/gather round-trip per part.  Seeds
        ``_part_cache`` so the partition enumeration's
        :meth:`_evaluate_part` calls hit for singletons.
        """
        if not active:
            return
        budget = self.contours.budget(contour_index)
        eq = point_spill[None, :] == np.asarray(active)[:, None]
        cols = coords[:, active].T
        first_rows = np.where(eq, cols, -1).argmax(axis=1)
        for k, dim in enumerate(active):
            key = (contour_index, learned_key, (dim,))
            if key in self._part_cache:
                continue
            row = int(first_rows[k])
            max_j = int(coords[row, dim])
            pid = int(plan_ids[row])
            location = tuple(int(c) for c in coords[row])
            curve = self.ess.spill_cost_curve(pid, dim, location)
            self._part_cache[key] = PartStep(
                dims=(dim,),
                leader=dim,
                plan_id=pid,
                location=location,
                budget=budget,
                learn_idx=learnable_index(curve, budget, max_j),
                curve=curve,
                penalty=1.0,
                native=True,
            )

    def _evaluate_part(self, contour_index, learned_key, part, context):
        """Best (leader, plan, penalty) for one candidate part ``T``.

        Returns a :class:`PartStep`, or ``None`` when no dimension of the
        part can act as leader (no native PSA and no replacement plan).
        """
        cache_key = (contour_index, learned_key, part)
        if cache_key in self._part_cache:
            return self._part_cache[cache_key]

        coords, plan_ids, point_spill, remaining_key = context
        budget = self.contours.budget(contour_index)
        in_part = point_spill == part[0]
        for dim in part[1:]:
            in_part |= point_spill == dim
        best = None
        if in_part.any():
            for leader in part:
                step = self._leader_step(
                    leader, part, in_part, coords, plan_ids, point_spill,
                    budget, remaining_key, contour_index,
                )
                if step is None:
                    continue
                if best is None or step.penalty < best.penalty - 1e-12 or (
                    abs(step.penalty - best.penalty) <= 1e-12
                    and step.leader < best.leader
                ):
                    best = step
        self._part_cache[cache_key] = best
        return best

    def _leader_step(self, leader, part, in_part, coords, plan_ids,
                     point_spill, budget, remaining_key, contour_index):
        """PSA for part ``T`` with a specific leader dimension."""
        lead_col = coords[:, leader]
        if len(part) == 1:
            # Every member of a singleton part spills on its only
            # dimension, so PSA always holds natively at the first
            # extreme-coordinate location (masked argmax returns the
            # first member row achieving the maximum).
            row = int(np.where(in_part, lead_col, -1).argmax())
            max_j = int(lead_col[row])
        else:
            max_j = int(np.where(in_part, lead_col, -1).max())
            # First part member at the extreme coordinate that spills on
            # the leader; a masked argmax over the leader-spillers gives
            # the first such row, valid only if it reaches max_j.
            cand = int(np.where(
                in_part & (point_spill == leader), lead_col, -1
            ).argmax())
            native = (point_spill[cand] == leader and in_part[cand]
                      and int(lead_col[cand]) == max_j)
            row = cand if native else -1
        if row >= 0:
            # PSA holds natively: the extreme location's plan already
            # spills on the leader.
            pid = int(plan_ids[row])
            location = tuple(int(c) for c in coords[row])
            curve = self.ess.spill_cost_curve(pid, leader, location)
            return PartStep(
                dims=part,
                leader=leader,
                plan_id=pid,
                location=location,
                budget=budget,
                learn_idx=learnable_index(curve, budget, max_j),
                curve=curve,
                penalty=1.0,
                native=True,
            )
        # Induce PSA: cheapest (plan in P_leader, location in S) pair,
        # where S is every contour location with the extreme leader
        # coordinate (Section 5.2.1).
        pool = self._spiller_pool(leader, remaining_key, contour_index)
        if not pool:
            return None
        s_rows = np.flatnonzero(coords[:, leader] == max_j)
        if len(s_rows) == 0:
            return None
        s_flat = coords[s_rows].astype(np.int64) @ np.asarray(
            self.ess.grid.strides, dtype=np.int64
        )
        costs = np.empty((len(pool), s_flat.size), dtype=float)
        if self.ess.grid.num_points <= self.ess.POINTWISE_EVAL_MIN_GRID:
            for k, pid in enumerate(pool):
                costs[k] = self._cost_surface(pid)[s_flat]
        else:
            for k, pid in enumerate(pool):
                costs[k] = self.ess.plan_cost_at_points(pid, s_flat)
        # Flat argmin scans row-major: first pool plan, then first
        # location, achieving the minimum — the scalar search's
        # tie-breaking order.
        flat_min = int(np.argmin(costs))
        best_cost = float(costs.flat[flat_min])
        best_pid = pool[flat_min // s_flat.size]
        best_row = int(s_rows[flat_min % s_flat.size])
        exec_budget = max(budget, best_cost)
        location = tuple(int(c) for c in coords[best_row])
        curve = self.ess.spill_cost_curve(best_pid, leader, location)
        return PartStep(
            dims=part,
            leader=leader,
            plan_id=best_pid,
            location=location,
            budget=exec_budget,
            learn_idx=learnable_index(curve, exec_budget, max_j),
            curve=curve,
            penalty=exec_budget / budget,
            native=False,
        )

    # ------------------------------------------------------------------
    # Partition-cover search (steps S0-S2 of Algorithm 2)
    # ------------------------------------------------------------------

    def _plan_partition(self, contour_index, learned):
        """The minimum-penalty partition's steps for a state (cached)."""
        learned_key = tuple(sorted(learned.items()))
        key = (contour_index, learned_key)
        cached = self._partition_cache.get(key)
        if cached is not None:
            return cached

        coords, plan_ids = self._effective_contour(contour_index, learned)
        steps = []
        if len(coords):
            remaining = [d for d in range(self.num_dims) if d not in learned]
            remaining_key = tuple(remaining)
            point_spill = self._point_spill(plan_ids, learned)
            active = sorted(set(point_spill.tolist()) - {-1})
            context = (coords, plan_ids, point_spill, remaining_key)
            self._seed_singleton_parts(
                contour_index, learned_key, active, coords, plan_ids,
                point_spill,
            )
            best_steps = None
            best_cost = np.inf
            for partition in set_partitions(active):
                parts = []
                cost = 0.0
                feasible = True
                for part in partition:
                    step = self._evaluate_part(
                        contour_index, learned_key, tuple(sorted(part)), context
                    )
                    if step is None:
                        feasible = False
                        break
                    parts.append(step)
                    cost += step.penalty
                if not feasible:
                    continue
                better = cost < best_cost - 1e-12 or (
                    abs(cost - best_cost) <= 1e-12
                    and best_steps is not None
                    and len(parts) < len(best_steps)
                )
                if best_steps is None or better:
                    best_cost = cost
                    best_steps = sorted(parts, key=lambda s: s.leader)
            # The all-singletons partition is always feasible (it is
            # SpillBound's own choice), so best_steps is never None here.
            if best_steps is None:
                raise DiscoveryError(
                    f"no feasible partition on contour {contour_index}"
                )
            steps = best_steps
        self._partition_cache[key] = steps
        return steps

    def contour_steps(self, contour_index, learned):
        """The chosen partition's steps (uniform step interface).

        Prior-guided schedules reorder the partition (a fresh list, so
        the cached partition is never mutated); inert schedules return
        the cached list untouched.
        """
        return self.prior_schedule().order_steps(
            self._plan_partition(contour_index, learned)
        )

    # ------------------------------------------------------------------
    # Discovery (Algorithm 2)
    # ------------------------------------------------------------------

    def run(self, qa, trace=False):
        """SpillBound's walk over the partition steps; the largest
        replacement penalty met is folded into
        :attr:`observed_max_penalty`."""
        result = super().run(qa, trace)
        self.observed_max_penalty = max(self.observed_max_penalty,
                                        result.max_penalty)
        return result


# ----------------------------------------------------------------------
# Contour-alignment statistics (paper Table 2)
# ----------------------------------------------------------------------

@dataclass
class AlignmentStats:
    """Alignment profile of one query's contour set.

    ``fraction_aligned(threshold)`` gives the fraction of contours that
    are aligned when replacement penalties up to ``threshold`` are
    allowed (``threshold=1`` means natively aligned).  ``max_penalty`` is
    the smallest threshold making *every* contour aligned (``inf`` when
    some contour cannot be aligned at any price).
    """

    contour_penalties: list

    def fraction_aligned(self, threshold=1.0):
        if not self.contour_penalties:
            return 0.0
        hits = sum(1 for p in self.contour_penalties if p <= threshold + 1e-9)
        return hits / len(self.contour_penalties)

    @property
    def max_penalty(self):
        worst = max(self.contour_penalties, default=float("inf"))
        return worst


def contour_alignment_stats(ess, contour_set):
    """Per-contour minimum alignment penalty (Section 5.1 / Table 2).

    For each contour, over each dimension ``j``: if an extreme-``j``
    location's plan spills on ``j`` the contour is natively aligned
    (penalty 1); otherwise the cheapest replacement at an extreme-``j``
    location by a ``j``-spilling POSP plan prices the induction.  The
    contour's penalty is the minimum over dimensions.
    """
    num_dims = ess.grid.num_dims
    all_dims = list(range(num_dims))
    spillers = {
        dim: [
            pid for pid in range(ess.posp_size)
            if ess.spill_dimension(pid, all_dims) == dim
        ]
        for dim in all_dims
    }
    penalties = []
    for contour in contour_set:
        if len(contour.points) == 0:
            continue
        coords = contour.coords
        plan_ids = contour.plan_ids
        point_spill = np.fromiter(
            (ess.spill_dimension(int(pid), all_dims) for pid in plan_ids),
            dtype=np.int64,
            count=len(plan_ids),
        )
        best = np.inf
        for dim in all_dims:
            max_j = int(coords[:, dim].max())
            extreme = np.flatnonzero(coords[:, dim] == max_j)
            if (point_spill[extreme] == dim).any():
                best = 1.0
                break
            pool = spillers[dim]
            if not pool:
                continue
            ext_flat = np.fromiter(
                (ess.grid.flat_index(tuple(int(c) for c in coords[r]))
                 for r in extreme),
                dtype=np.int64,
                count=len(extreme),
            )
            for pid in pool:
                cost = float(ess.plan_cost_at_points(pid, ext_flat).min())
                best = min(best, max(1.0, cost / contour.budget))
        penalties.append(best)
    return AlignmentStats(contour_penalties=penalties)
