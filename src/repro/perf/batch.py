"""Frontier-batched discovery simulation: the vectorized sweep engine.

The paper's whole evaluation (Figures 8-13) rests on *exhaustive*
sub-optimality sweeps: every ESS grid location is treated as the actual
selectivity ``qa`` and discovery is re-run from scratch.  Discovery for
a given ``qa`` is deterministic, and its path is a walk through a small
shared state machine whose states are ``(contour index, learned
coordinates)`` pairs — exactly the states SpillBound already memoizes
plan steps for.  Instead of running N independent walks, this engine
propagates *sets* of grid locations through that state machine:

* each distinct discovery state is walked **once**, carrying the set
  of locations currently in it (the frontier);
* a budgeted execution's outcome partitions the set with one vectorized
  comparison — locations whose grid index along the step's dimension is
  ``<= learn_idx`` complete (fully learning the epp, charged from the
  spill-cost curve), the rest are charged the budget and half-space
  pruned past the step (Lemma 3.1 / 4.3);
* completions split by their learnt coordinate and advance to the
  ``(same contour, learned + {dim: idx})`` state; survivors of a whole
  contour crossing advance to ``(contour + 1, learned)``;
* once one epp remains, the group's 1-D PlanBouquet tail is *deferred*:
  after the walk, all tail states drain together in one globally
  vectorized pass — per-line (contour, plan) trial sequences from the
  shared :func:`~repro.core.spill_bound.band_trials`, plan-cost gathers
  grouped per plan, and one completion ``argmax`` per location.

States are processed a ``(contour, |learned|)`` *level* at a time, in
lexicographic order — every transition strictly increases that key, so
a level's states and their location sets are complete when it is
popped, and each location's charges accumulate in exactly the order the
scalar ``run(qa)`` walk would apply them (the tail is each location's
final, separately-subtotalled charge in both walks, so draining it last
preserves that order).  The level's states go to the algorithm's
planner together (``plan_level``: sibling slices grouped with one sort,
segment reductions, batched spill curves) — the planner the scalar walk
calls with one key, so charges, budgets, learn thresholds and spill
curves are the very values ``contour_steps`` returns.  A state whose
effective slice plans no steps crosses its contour without charges,
exactly as the scalar walk does: its locations are re-queued, at the
same key, onto the next contour's level.  The resulting sub-optimality
array is **bit-identical** to the per-location loop (pinned by
``tests/test_perf_batch.py``).

Coverage is gated on the exact algorithm type: :class:`PlanBouquet`
(whose regular-mode sweep is a pure contour/plan/budget pass),
:class:`SpillBound` and :class:`AlignedBound`.  Subclasses (randomized
step orders, SI-violating worlds) keep the per-location reference loop.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

from repro.core.discovery import budget_covers
from repro.errors import DiscoveryError
from repro.obs.metrics import REGISTRY
from repro.obs.trace import current_span
from repro.obs.trace import span as obs_span


def batched_suboptimality(algorithm, points=None):
    """Sub-optimality for every requested location, in one batched pass.

    Args:
        algorithm: a discovery algorithm instance.
        points: optional iterable of flat grid indices (any order,
            duplicates allowed); default is the full grid.

    Returns:
        ``(len(points),)`` float array aligned with the input order
        (grid order for the full sweep), or ``None`` when the engine
        does not cover the algorithm — callers fall back to the
        per-location loop.
    """
    engine = engine_for(algorithm)
    if engine is None:
        return None
    grid = algorithm.ess.grid
    if points is None:
        flats = np.arange(grid.num_points, dtype=np.int64)
        unique = flats
    else:
        flats = np.asarray(list(points), dtype=np.int64)
        if flats.size == 0:
            return np.empty(0, dtype=float)
        unique = np.unique(flats)
    prior = getattr(algorithm, "prior", None)
    with REGISTRY.phase("batched_sweep"):
        with obs_span("sweep.batch", points=int(flats.size),
                      unique=int(unique.size),
                      prior="uniform" if prior is None else prior.kind):
            total = engine(algorithm, unique)
    REGISTRY.incr("batched_sweeps")
    REGISTRY.incr("batched_sweep_points", int(flats.size))
    # Gather only the swept locations' denominators: on a lazy surface a
    # restricted sweep must not materialize the whole grid.
    return total[flats] / algorithm.ess.optimal_cost_at(flats)


#: Registered engines for non-stock algorithm classes (exact type ->
#: engine), populated by :func:`register_batch_engine` — how the arena
#: rivals plug into the batched path without this module knowing them.
_EXTRA_ENGINES = {}


def register_batch_engine(cls, engine):
    """Register a batched sweep engine for an algorithm class.

    ``engine(algorithm, flats)`` must return a full-grid *total
    charged cost* array filled at the requested flats, exactly like
    the stock engines; :func:`batched_suboptimality` handles the
    optimal-cost division.  The gate stays exact-type: subclasses of a
    registered class fall back to the per-location loop, mirroring the
    stock classes.
    """
    _EXTRA_ENGINES[cls] = engine


def engine_for(algorithm):
    """The batched engine for an algorithm, or None (exact-type gate:
    subclasses override walk behaviour the engine cannot see).  The
    multiprocess fan-out (:mod:`repro.perf.parallel`) shares this gate."""
    from repro.core.aligned_bound import AlignedBound
    from repro.core.plan_bouquet import PlanBouquet
    from repro.core.spill_bound import SpillBound

    kind = type(algorithm)
    if kind is PlanBouquet:
        return _sweep_bouquet
    if kind in (SpillBound, AlignedBound):
        return _sweep_frontier
    return _EXTRA_ENGINES.get(kind)


def _start_array(algorithm, flats):
    """Per-location prior starting contours, or None when inert.

    ``None`` keeps the engines on their literal pre-prior code paths —
    the inert sweep must stay bit-identical, not merely equivalent.
    """
    schedule_of = getattr(algorithm, "prior_schedule", None)
    if schedule_of is None:
        return None
    schedule = schedule_of()
    if not schedule.active:
        return None
    return schedule.start_array(flats)


# ----------------------------------------------------------------------
# PlanBouquet: regular-mode contour ascent, one mask per plan
# ----------------------------------------------------------------------

def _sweep_bouquet(algorithm, flats):
    """Total charged cost per location for PlanBouquet's sweep.

    Every location ascends the same reduced-contour/plan sequence until
    its first completion, so the whole sweep is one boolean-mask pass
    per bouquet plan against that plan's cached cost surface.
    """
    ess = algorithm.ess
    total = np.zeros(ess.grid.num_points, dtype=float)
    active = np.zeros(ess.grid.num_points, dtype=bool)
    active[flats] = True
    # Prior-guided starts: locations stay uncharged (and unexamined)
    # until the ladder reaches their starting contour.  ``starts`` is
    # None for inert priors, keeping the original single-mask pass.
    starts = _start_array(algorithm, flats)
    start_full = None
    if starts is not None:
        start_full = np.zeros(ess.grid.num_points, dtype=np.int64)
        start_full[flats] = starts
    for rc in algorithm.reduction.reduced:
        if not active.any():
            break
        budget = rc.inflated_budget
        if start_full is None:
            eligible = active
        else:
            eligible = active & (start_full <= rc.index)
            if not eligible.any():
                continue
        for pid in algorithm.contour_plans(rc):
            if not eligible.any():
                break
            cost = ess.plan_cost_array(pid)
            completes = eligible & budget_covers(cost, budget)
            total[completes] += cost[completes]
            active &= ~completes
            if eligible is not active:
                eligible &= ~completes
            total[eligible] += budget
    if active.any():
        raise DiscoveryError("PlanBouquet sweep left unfinished locations")
    return total


# ----------------------------------------------------------------------
# SpillBound / AlignedBound: the frontier walk
# ----------------------------------------------------------------------

def _sweep_frontier(algorithm, flats):
    """Total charged cost per location for the spill-mode algorithms."""
    ess = algorithm.ess
    grid = ess.grid
    num_contours = algorithm.contours.num_contours
    num_dims = grid.num_dims
    total = np.zeros(grid.num_points, dtype=float)
    coord = [grid.coord_array(d) for d in range(num_dims)]

    # (contour, |learned|) level -> {learned key: location arrays
    # awaiting the state's visit}; the heap holds each level once.
    frontier = {}
    heap = []
    tails = []  # deferred 1-D states: (free_dim, start_contour, group)
    # States a re-queued empty crossing opened and no transition has
    # reached yet (see the batched_sweep_states count below).
    crossed = set()
    num_states = 0

    def push(contour_index, learned_key, groups, crossing=False):
        nonlocal num_states
        level = (contour_index, len(learned_key))
        states = frontier.get(level)
        if states is None:
            states = frontier[level] = {}
            heapq.heappush(heap, level)
        bucket = states.get(learned_key)
        if bucket is None:
            states[learned_key] = list(groups)
            if crossing:
                crossed.add((contour_index, learned_key))
            else:
                num_states += 1
            return
        bucket.extend(groups)
        if crossed and not crossing and (contour_index, learned_key) in crossed:
            crossed.discard((contour_index, learned_key))
            num_states += 1

    # Prior-guided starts partition the initial frontier by starting
    # contour; inert priors keep the original single push at contour 1.
    starts = _start_array(algorithm, flats)
    if starts is None:
        push(1, (), [flats])
    else:
        for start in np.unique(starts):
            push(int(start), (), [flats[starts == start]])
    max_penalty = 1.0
    num_levels = 0
    plan_s = walk_s = 0.0
    while heap:
        level = heapq.heappop(heap)
        contour_index, num_learned = level
        states = frontier.pop(level)
        remaining = num_dims - num_learned
        if remaining == 0:
            raise DiscoveryError("all epps learnt before the 1-D phase")
        if remaining == 1:
            for learned_key, groups in states.items():
                learned = dict(learned_key)
                tails.append((
                    next(d for d in range(num_dims) if d not in learned),
                    contour_index,
                    _merged(groups),
                ))
            continue
        keys = list(states)
        if contour_index > num_contours:
            # The scalar walk invokes the ladder-exhausted hook here;
            # for the stock algorithms that raises (Lemma 3.2 / the
            # slice-terminus argument under SI).
            raise DiscoveryError(
                "sweep ascended past the last contour "
                f"(state {(contour_index, keys[0])})"
            )
        # Every state of the level is in the frontier by now (each
        # transition strictly increases the level), so the planner gets
        # the level whole.
        begin = time.perf_counter()
        plans = algorithm.plan_level(contour_index, keys)
        planned = time.perf_counter()
        plan_s += planned - begin
        num_levels += 1
        for learned_key, steps in zip(keys, plans):
            if not steps:
                # The effective slice plans no steps: the scalar walk
                # crosses this contour without charges too.  Re-queued
                # onto the next contour's level, at the same key.
                push(contour_index + 1, learned_key, states[learned_key],
                     crossing=True)
                continue
            active = _merged(states[learned_key])
            for step in steps:
                if active.size == 0:
                    break
                if step.penalty > max_penalty:
                    max_penalty = step.penalty
                idx = coord[step.exec_dim][active]
                done = idx <= step.learn_idx
                completed = active[done]
                if completed.size:
                    done_idx = idx[done]
                    total[completed] += step.curve[done_idx]
                    # Completions split by the coordinate they learnt.
                    for value in np.unique(done_idx):
                        next_key = tuple(sorted(
                            learned_key + ((int(step.exec_dim), int(value)),)
                        ))
                        push(contour_index, next_key,
                             [completed[done_idx == value]])
                active = active[~done]
                total[active] += step.budget
            if active.size:
                # Nothing learnt: qa lies beyond this contour (Lemma 4.3).
                push(contour_index + 1, learned_key, [active])
        walk_s += time.perf_counter() - planned

    begin = time.perf_counter()
    _drain_tails(algorithm, tails, total)
    if hasattr(algorithm, "observed_max_penalty"):
        # Mirror the scalar walk's side effect (Table 4 reads it).
        algorithm.observed_max_penalty = max(
            algorithm.observed_max_penalty, max_penalty
        )
    # Frontier states some transition reached — each is walked (or
    # deferred to the tail drain) exactly once.  The re-queued empty
    # crossings are not counted, as the per-state fast-forward they
    # replace never was: the figure is the same before and after the
    # level planner, which is the proof that the walk did not change.
    REGISTRY.incr("batched_sweep_states", num_states)
    span = current_span()
    if span is not None:
        for name, value in (
            ("levels", num_levels), ("states", num_states),
            ("plan_s", plan_s), ("walk_s", walk_s),
            ("tail_s", time.perf_counter() - begin),
        ):
            span.set_attr(name, value)
    return total


def _merged(groups):
    """One location array from the groups that reached a state."""
    return groups[0] if len(groups) == 1 else np.concatenate(groups)


def _drain_tails(algorithm, tails, total):
    """Drain every deferred 1-D PlanBouquet tail in one vectorized pass.

    A tail state is a line (the learnt coordinates plus one free
    dimension), an entry contour, and the locations that reached it.
    Grouped by free dimension, the (contour, plan) trial sequences of
    all lines come from one :func:`~repro.core.spill_bound.band_trials`
    call — the same implementation behind the scalar tail's per-contour
    plan lists — and every location's charge reduces to the prefix sum
    of failed-trial budgets plus the completing plan's cost.

    The scalar walk sums the tail into its own accumulator and adds the
    subtotal once (``total += tail_total``); the prefix-plus-completion
    form reproduces that float64 association exactly (``cumsum`` along
    a trial row is the same left-to-right addition chain).
    """
    from repro.core.spill_bound import band_trials

    if not tails:
        return
    ess = algorithm.ess
    grid = ess.grid
    budgets = np.asarray(algorithm.contours.budgets, dtype=float)
    band = algorithm.contours.band
    plan_ids = ess.plan_ids

    by_dim = {}
    for free_dim, start, group in tails:
        by_dim.setdefault(free_dim, []).append((start, group))

    for free_dim, entries in by_dim.items():
        stride = grid.strides[free_dim]
        length = grid.resolution[free_dim]
        coord = grid.coord_array(free_dim)
        num_lines = len(entries)
        starts = np.fromiter(
            (s for s, _ in entries), dtype=np.int64, count=num_lines
        )
        groups = [g for _, g in entries]
        counts = np.fromiter(
            (g.size for g in groups), dtype=np.int64, count=num_lines
        )
        flats = np.concatenate(groups)
        ent_off = np.cumsum(counts) - counts
        # One representative member locates each state's line.
        anchors = flats[ent_off]
        bases = anchors - coord[anchors].astype(np.int64) * stride
        lines = bases[:, None] + stride * np.arange(length, dtype=np.int64)
        t_line, t_band, t_pid = band_trials(band[lines], plan_ids[lines])
        # Trials on contours below a state's entry contour never run.
        keep = t_band >= (starts - 1)[t_line]
        t_line, t_band, t_pid = t_line[keep], t_band[keep], t_pid[keep]
        t_budget = budgets[t_band]
        t_count = np.bincount(t_line, minlength=num_lines)
        if (t_count == 0).any():
            raise DiscoveryError(
                f"1-D bouquet failed to terminate (dim {free_dim})"
            )
        t_off = np.cumsum(t_count) - t_count
        t_rank = np.arange(t_line.size, dtype=np.int64) - t_off[t_line]
        width = int(t_count.max())
        # Per-state running budget totals, identical to the scalar
        # walk's sequential additions.
        cum_budget = np.zeros((num_lines, width), dtype=float)
        cum_budget[t_line, t_rank] = t_budget
        np.cumsum(cum_budget, axis=1, out=cum_budget)
        # Expand each trial over its state's entrants.
        rep = counts[t_line]
        num_pairs = int(rep.sum())
        pair_trial = np.repeat(np.arange(t_line.size), rep)
        rep_off = np.cumsum(rep) - rep
        pair_ent = (
            np.arange(num_pairs, dtype=np.int64)
            - rep_off[pair_trial]
            + ent_off[t_line[pair_trial]]
        )
        pair_flat = flats[pair_ent]
        # Plan-cost gathers grouped per plan: a handful of big fancy
        # gathers instead of one tiny one per (state, contour, plan).
        pair_cost = np.empty(num_pairs, dtype=float)
        pair_pid = t_pid[pair_trial]
        order = np.argsort(pair_pid, kind="stable")
        sorted_pid = pair_pid[order]
        cuts = np.flatnonzero(np.diff(sorted_pid)) + 1
        for seg in np.split(order, cuts):
            pid = int(pair_pid[seg[0]])
            # plan_cost_at_points keeps large grids on the point-wise
            # memo path instead of materializing a full cost surface.
            pair_cost[seg] = ess.plan_cost_at_points(pid, pair_flat[seg])
        pair_ok = budget_covers(pair_cost, t_budget[pair_trial])
        # First completing trial per entrant.
        ok = np.zeros((flats.size, width), dtype=bool)
        costm = np.zeros((flats.size, width), dtype=float)
        cols = t_rank[pair_trial]
        ok[pair_ent, cols] = pair_ok
        costm[pair_ent, cols] = pair_cost
        if not ok.any(axis=1).all():
            raise DiscoveryError(
                f"1-D bouquet failed to terminate (dim {free_dim})"
            )
        first = ok.argmax(axis=1)
        ent_state = np.repeat(np.arange(num_lines), counts)
        prefix = np.where(
            first > 0, cum_budget[ent_state, first - 1], 0.0
        )
        total[flats] += prefix + costm[np.arange(flats.size), first]
