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

import functools
from dataclasses import dataclass

import numpy as np

from repro.core.spill_bound import SpillBound, run_starts
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


@functools.lru_cache(maxsize=None)
def _partition_table(num_items):
    """:func:`set_partitions` of ``num_items`` positions as part bitmasks:
    row ``p`` of the ``(partitions, num_items)`` table lists partition
    ``p``'s parts in enumeration order — the order their penalties are
    summed in — zero-padded, and ``sizes[p]`` counts them."""
    partitions = [
        [sum(1 << item for item in part) for part in partition]
        for partition in set_partitions(range(num_items))
    ]
    table = np.zeros((len(partitions), num_items), dtype=np.int64)
    for row, masks in zip(table, partitions):
        row[:len(masks)] = masks
    sizes = np.asarray([len(masks) for masks in partitions])
    table.flags.writeable = sizes.flags.writeable = False  # shared by callers
    return table, sizes


def _choose_partitions(total, sizes):
    """The partition each slice's scan ends on, or ``-1`` (none feasible).

    ``total[slice, p]`` is partition ``p``'s total penalty (``inf``:
    infeasible) and ``sizes[p]`` its number of parts.  Per slice, the
    scan in enumeration order: a partition is taken when cheaper than
    the incumbent by more than 1e-12, or within 1e-12 of it with fewer
    parts — minimum total, ties to fewer parts, else the first
    enumerated.  (Plain Python: slices mostly have two to five
    partitions, where a vectorized scan is all call overhead.)
    """
    sizes = sizes.tolist()
    chosen = []
    for costs in total.tolist():
        best, least, fewest = -1, np.inf, 0
        for partition, (cost, size) in enumerate(zip(costs, sizes)):
            if cost < least - 1e-12 or (
                    abs(cost - least) <= 1e-12 and size < fewest):
                best, least, fewest = partition, cost, size
        chosen.append(best)
    return np.asarray(chosen)


@functools.lru_cache(maxsize=None)
def _subsets(items):
    """The sub-tuple of ``items`` each bitmask over its positions picks."""
    return tuple(
        tuple(item for k, item in enumerate(items) if mask >> k & 1)
        for mask in range(1 << len(items))
    )


@dataclass(frozen=True, slots=True)
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
    overrides the per-contour crossing strategy (:meth:`_plan_states`)
    with the partition-cover search.
    """

    def __init__(self, ess, contour_set=None, cost_ratio=DEFAULT_COST_RATIO,
                 prior=None):
        super().__init__(ess, contour_set, cost_ratio, prior=prior)
        self._local_plan_cache = {}
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
        The pool ``P_dim`` of a state is the subset whose spill order
        leads with ``dim`` once the state's learnt epps are struck out.
        """
        cached = self._local_plan_cache.get(contour_index)
        if cached is None:
            ids = []
            lo = max(1, contour_index - 1)
            hi = min(self.contours.num_contours, contour_index + 1)
            for index in range(lo, hi + 1):
                for pid in self.contours.contour(index).unique_plan_ids():
                    if pid not in ids:
                        ids.append(pid)
            cached = self._local_plan_cache[contour_index] = np.asarray(
                ids, dtype=np.int64
            )
        return cached

    # ------------------------------------------------------------------
    # Partition-cover search (steps S0-S2 of Algorithm 2), for sibling
    # states of one contour together
    # ------------------------------------------------------------------

    def _plan_states(self, contour_index, learned_keys):
        """The minimum-penalty partition's steps for sibling states: per
        state, one :class:`PartStep` per part of the chosen partition of
        its active dimensions (those some location of the effective
        slice spills on), in ascending leader order.  States sharing a
        learnt-dimension set and an active set are covered together."""
        plans = [[] for _ in learned_keys]
        contour = self.contours.contour(contour_index)
        # The replacement searches gather from the same plans' cost
        # arrays thousands of times a level; this call keeps references
        # to them, and only for its own length, so every array still
        # held after it is one the ESS cache (``COST_CACHE_LIMIT``) keeps.
        surfaces = {}
        for slices in self._sibling_slices(contour, learned_keys):
            first = slices.extreme_spillers()
            active = first >= 0
            pattern = active @ (1 << np.arange(active.shape[1]))
            for bits in sorted(set(pattern.tolist()) - {0}):
                alike = np.flatnonzero(pattern == bits)
                cover, steps = self._cover_slices(
                    contour, slices, first,
                    np.flatnonzero(active[alike[0]]), alike, surfaces,
                )
                for number, step in zip(cover.tolist(), steps):
                    plans[slices.states[number]].append(step)
        return plans

    def _cover_slices(self, contour, siblings, first, active, slices,
                      surfaces):
        """Partition covers of the ``slices`` (numbers in ``siblings``)
        whose active dimensions are ``active``; ``surfaces`` is the
        caller's plan -> cost array map for :meth:`_induce`.

        Returns ``(slice, steps)``: each chosen part's slice and its
        :class:`PartStep`, slice by slice in ascending leader order.
        Every array below is indexed ``[slice, part, leader]``: parts
        are the bitmasks over the active dimensions (part 0, the empty
        set, pads short partitions at no penalty), leaders positions.
        """
        dims = active.tolist()
        rows = siblings.rows
        budget = contour.budget
        num = len(dims)
        if num == 1:
            # One active dimension, nothing to partition: the cover is
            # SpillBound's step for it.
            at = rows[first[slices, dims[0]]]
            locations = contour.coords[at].tolist()
            pids = contour.plan_ids[at].tolist()
            curves, learnable = self._curves_and_reach(
                dims * len(at), pids, locations, [budget] * len(at),
                [location[dims[0]] for location in locations],
            )
            return slices, [
                PartStep((dims[0],), dims[0], pid, tuple(location), budget,
                         learn_idx, curve, 1.0, True)
                for pid, location, learn_idx, curve in zip(
                    pids, locations, learnable, curves)
            ]
        coord = siblings.coord[:, active]
        member = (np.arange(1 << num)[:, None] >> np.arange(num)) & 1 == 1
        # reach[slice, s, l]: the largest l coordinate among the slice's
        # rows spilling on s.
        reach = np.maximum.reduceat(
            np.where(
                (siblings.spill[:, None] == np.asarray(dims))[:, :, None],
                coord[:, None, :], -1,
            ),
            siblings.starts, axis=0,
        )[slices]
        # A part's extreme leader coordinate, over all its spillers; PSA
        # holds natively when the leader's own spillers attain it — the
        # step is then SpillBound's for the leader.
        extreme = np.where(
            member[None, :, :, None], reach[:, None, :, :], -1
        ).max(axis=2)
        native = member & (
            extreme == reach.diagonal(axis1=1, axis2=2)[:, None, :]
        )
        spend = np.where(native, budget, np.inf)
        plan = np.zeros(spend.shape, dtype=np.int64)
        where = np.zeros(spend.shape, dtype=np.int64)
        # Induce PSA elsewhere: cheapest (plan in P_leader, location in
        # S) pair, S being the slice's locations with the extreme leader
        # coordinate (Section 5.2.1) — one search per distinct
        # (slice, leader, extreme coordinate).
        induce = member & ~native
        if induce.any():
            # (The pool before the spill orders: on a lazy surface
            # fetching it can grow the POSP.)
            local = self._local_plans(contour.index)
            leads_with = self._first_unlearnt(siblings.learnt)[local]
            slice_of_row = np.repeat(
                np.arange(len(siblings.starts)),
                np.diff(np.append(siblings.starts, len(rows))),
            )
        for lead, dim in enumerate(dims):
            which, part = np.nonzero(induce[:, :, lead])
            pool = local[leads_with == dim] if len(which) else which
            if not len(pool):
                continue  # spend stays inf: no replacement, no such leader
            span = self.ess.grid.resolution[dim]
            requests, request = np.unique(
                slices[which] * span + extreme[which, part, lead],
                return_inverse=True,
            )
            cost, pid, row = self._induce(
                contour, pool, rows,
                slice_of_row * span + coord[:, lead], requests, surfaces,
            )
            spend[which, part, lead] = np.maximum(budget, cost)[request]
            plan[which, part, lead] = pid[request]
            where[which, part, lead] = row[request]
        penalty = spend / budget
        # Best leader per part, as the scalar scan over ascending
        # leaders: a later one wins only by more than 1e-12.
        part_penalty = np.full(penalty.shape[:2], np.inf)
        part_leader = np.zeros(penalty.shape[:2], dtype=np.int64)
        for lead in range(num):
            better = penalty[:, :, lead] < part_penalty - 1e-12
            part_penalty[better] = penalty[:, :, lead][better]
            part_leader[better] = lead
        # Total penalty of every partition, parts added in enumeration
        # order.
        table, sizes = _partition_table(num)
        part_penalty[:, 0] = 0.0
        total = part_penalty[:, table[:, 0]]
        for column in range(1, num):
            total = total + part_penalty[:, table[:, column]]
        chosen = _choose_partitions(total, sizes)
        # The all-singletons partition is always feasible (it is
        # SpillBound's own choice), so every slice has chosen one.
        if (chosen < 0).any():
            raise DiscoveryError(
                f"no feasible partition on contour {contour.index}"
            )
        which, column = np.nonzero(table[chosen])
        part = table[chosen][which, column]
        lead = part_leader[which, part]
        # Slice by slice, in ascending leader order.
        order = np.lexsort((lead, which))
        which, part, lead = which[order], part[order], lead[order]
        is_native = native[which, part, lead]
        at = np.where(
            is_native,
            rows[first[slices[which], active[lead]]],
            where[which, part, lead],
        )
        pids = np.where(
            is_native, contour.plan_ids[at], plan[which, part, lead]
        ).tolist()
        leaders = active[lead].tolist()
        locations = contour.coords[at].tolist()
        budgets = spend[which, part, lead].tolist()
        curves, learnable = self._curves_and_reach(
            leaders, pids, locations, budgets,
            extreme[which, part, lead].tolist(),
        )
        part_dims = _subsets(tuple(dims))
        steps = [
            PartStep(part_dims[mask], *fields)
            for mask, *fields in zip(
                part.tolist(), leaders, pids, map(tuple, locations), budgets,
                learnable, curves, penalty[which, part, lead].tolist(),
                is_native.tolist(),
            )
        ]
        return slices[which], steps

    def _induce(self, contour, pool, rows, row_code, requests, surfaces):
        """The cheapest (pool plan, location) pair of each request.

        A request is a code of ``row_code``'s kind (slice and leader
        coordinate in one number); its locations are the contour
        ``rows`` carrying that code.  Returns per request the minimum
        cost, the first pool plan and that plan's first location
        attaining it: a row-major ``argmin`` over (pool, locations).
        ``surfaces`` maps plan ids to full-grid cost arrays fetched
        earlier in the same planning call; misses are fetched from the
        ESS and added.
        """
        ess = self.ess
        slot = np.minimum(np.searchsorted(requests, row_code),
                          len(requests) - 1)
        hit = np.flatnonzero(requests[slot] == row_code)
        hit = hit[np.argsort(slot[hit], kind="stable")]
        slot = slot[hit]
        starts = run_starts(slot)
        flats = contour.points[rows[hit]]
        costs = np.empty((len(pool), len(flats)), dtype=float)
        if ess.grid.num_points <= ess.POINTWISE_EVAL_MIN_GRID:
            for k, pid in enumerate(pool.tolist()):
                surface = surfaces.get(pid)
                if surface is None:
                    surface = surfaces[pid] = ess.plan_cost_array(pid)
                costs[k] = surface[flats]
        else:
            for k, pid in enumerate(pool.tolist()):
                costs[k] = ess.plan_cost_at_points(pid, flats)
        cheapest = np.minimum.reduceat(costs, starts, axis=1)
        plan = cheapest.argmin(axis=0)
        cost = cheapest[plan, np.arange(len(requests))]
        attained = np.flatnonzero(
            costs[plan[slot], np.arange(len(slot))] == cost[slot]
        )
        at = attained[run_starts(slot[attained])]
        return cost, pool[plan], rows[hit[at]]

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
