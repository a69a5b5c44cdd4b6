"""Shared machinery for selectivity-discovery algorithms.

All three algorithms (PlanBouquet, SpillBound, AlignedBound) share the
same outer structure: ascend the iso-cost contours, run cost-budgeted
executions, account their charges, and stop when an execution completes
the query (or fully learns the last unknown selectivity).  This module
holds the common result/record types and the accounting conventions:

* a *failed* budgeted execution is charged its full budget (the engine
  kills it exactly at budget expiry);
* a *completed* execution is charged its actual cost (at most the
  budget).

Sub-optimality of a run is ``total charged / Cost(P_qa, qa)`` — the
paper's Equation (3).

One walk, two drivers
---------------------
The scalar walk is written here once, in two parts.  :func:`discover`
is the spill-mode ascent: cross each contour with the algorithm's
``contour_steps(contour, learned)``, re-plan the contour whenever an epp
is fully learnt, climb when none is, and hand the last unknown epp to
the 1-D bouquet.  :func:`bouquet_ascent` is the budgeted bouquet ascent
over a ``(contour, budget, plan id)`` trial sequence — PlanBouquet's
whole run and the spill algorithms' tail.  Both ask an *executor* how
one budgeted execution turns out: :class:`SimulatedExecutor` reads the
outcome off the cost model at a known ``qa``; the engine executor of
:mod:`repro.engine.driver` runs the plan on generated data.  The other
driver is the set-valued frontier sweep of :mod:`repro.perf.batch`,
which shares ``contour_steps``, ``band_trials`` (behind
``tail_trials``) and ``contour_plans`` with this walk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DiscoveryError

#: Execution modes.
SPILL = "spill"
NORMAL = "normal"

#: Relative slack for budget comparisons — floating point only, shared
#: by every discovery algorithm and by the batched sweep engine so both
#: paths make bit-identical completion decisions.
BUDGET_EPS = 1e-9


def budget_covers(cost, budget):
    """Whether a budgeted execution completes: ``cost <= budget`` up to
    the shared floating-point slack.  Works elementwise on arrays, so
    the scalar ``run(qa)`` walk and the vectorized sweep engine share
    one completion predicate."""
    return cost <= budget * (1.0 + BUDGET_EPS)


@dataclass(frozen=True)
class ExecutionRecord:
    """One budgeted (possibly spill-mode) plan execution.

    Attributes:
        contour: 1-based contour index the execution belongs to.
        plan_id: POSP plan identifier (``-1`` for synthetic plans).
        plan_key: canonical plan identity.
        mode: ``"spill"`` or ``"normal"``.
        spill_dim: ESS dimension spilled on (``None`` in normal mode).
        budget: the cost budget granted.
        charged: the cost actually accounted (budget if killed).
        completed: whether the execution finished within budget.
        learned_selectivity: selectivity value learnt for ``spill_dim``
            (exact on completion, a lower bound otherwise).
        fresh: paper Section 4.2 — first execution for this epp on this
            contour (repeats happen after another epp is fully learnt).
        penalty: AlignedBound's replacement penalty (1.0 when native).
    """

    contour: int
    plan_id: int
    plan_key: str
    mode: str
    spill_dim: object
    budget: float
    charged: float
    completed: bool
    learned_selectivity: float = float("nan")
    fresh: bool = True
    penalty: float = 1.0


@dataclass
class DiscoveryResult:
    """Outcome of one discovery run for a query located at ``qa``.

    Attributes:
        qa_coords: grid coordinates of the actual selectivity location.
        total_cost: sum of all charges along the execution sequence.
        optimal_cost: ``Cost(P_qa, qa)`` — the oracle cost.
        executions: per-execution records (``None`` unless traced).
        num_executions / num_repeat_executions: counters kept even in
            untraced runs (they feed the Lemma 4.4 property tests).
        contours_visited: how many contours the run ascended through.
        completed_plan_key: the plan whose full execution produced the
            query result.
    """

    qa_coords: tuple
    total_cost: float
    optimal_cost: float
    executions: object = None
    num_executions: int = 0
    num_repeat_executions: int = 0
    contours_visited: int = 0
    completed_plan_key: str = ""
    max_penalty: float = 1.0

    @property
    def suboptimality(self):
        """The run's sub-optimality (paper Equation 3)."""
        return self.total_cost / self.optimal_cost

    def waterfall_rows(self, query=None):
        """Flatten a traced run onto the cumulative cost timeline.

        Requires ``executions`` (run with ``trace=True``); see
        :func:`repro.obs.runtrace.run_records` for the row schema the
        budget-waterfall viewer consumes.
        """
        from repro.obs.runtrace import run_records

        return run_records(self, query)


class SimulatedExecutor:
    """Budgeted executions simulated on the cost model at a known ``qa``.

    An executor tells the walk how one budgeted execution turns out:

    * ``spill(contour, step, fresh) -> (charged, learnt index | None)``
      — a spill-mode step; ``None`` means killed at budget expiry;
    * ``trial(contour, budget, plan_id) -> (charged, completed)`` — a
      regular-mode bouquet trial;
    * ``exhausted(contour, learned) -> (charged, plan_id)`` — the answer
      when the walk runs out of budgeted executions.  Under selectivity
      independence that cannot happen (Lemma 3.2 / the slice-terminus
      argument), so the simulation raises.

    Traced runs collect one :class:`ExecutionRecord` per execution.
    """

    __slots__ = ("ess", "coords", "flat", "optimal", "executions")

    def __init__(self, ess, qa, trace=False):
        self.ess = ess
        self.coords, self.flat = normalize_location(ess.grid, qa)
        self.optimal = float(ess.optimal_cost[self.flat])
        self.executions = [] if trace else None

    def spill(self, contour_index, step, fresh):
        dim = step.exec_dim
        qa_idx = self.coords[dim]
        completed = qa_idx <= step.learn_idx
        charged = float(step.curve[qa_idx]) if completed else step.budget
        if self.executions is not None:
            self.executions.append(ExecutionRecord(
                contour=contour_index,
                plan_id=step.plan_id,
                plan_key=self.ess.plan_keys[step.plan_id],
                mode=SPILL,
                spill_dim=dim,
                budget=step.budget,
                charged=charged,
                completed=completed,
                learned_selectivity=self.ess.grid.selectivity(
                    dim, qa_idx if completed else step.learn_idx
                ),
                fresh=fresh,
                penalty=step.penalty,
            ))
        return charged, (qa_idx if completed else None)

    def trial(self, contour_index, budget, plan_id):
        cost_here = self.ess.plan_cost_at(plan_id, self.flat)
        completed = budget_covers(cost_here, budget)
        charged = cost_here if completed else budget
        if self.executions is not None:
            self.executions.append(ExecutionRecord(
                contour=contour_index,
                plan_id=plan_id,
                plan_key=self.ess.plan_keys[plan_id],
                mode=NORMAL,
                spill_dim=None,
                budget=budget,
                charged=charged,
                completed=completed,
            ))
        return charged, completed

    def exhausted(self, contour_index, learned):
        raise DiscoveryError(
            f"discovery at {self.coords} ran out of budgeted executions "
            f"on contour {contour_index} (learnt {learned})"
        )

    def result(self, total, num_exec, contour_index, plan_id, num_repeat=0,
               max_penalty=1.0):
        """The :class:`DiscoveryResult` of a finished walk."""
        return DiscoveryResult(
            qa_coords=self.coords,
            total_cost=total,
            optimal_cost=self.optimal,
            executions=self.executions,
            num_executions=num_exec,
            num_repeat_executions=num_repeat,
            contours_visited=contour_index,
            completed_plan_key=self.ess.plan_keys[plan_id],
            max_penalty=max_penalty,
        )


def bouquet_ascent(executor, trials):
    """Budgeted bouquet ascent: run ``(contour, budget, plan id)`` trials
    in order until one completes.

    Returns ``(total charged, executions, contour, plan id)``, the last
    two of the completing trial — ``None`` when the sequence ends
    without a completion.
    """
    total = 0.0
    num_exec = 0
    for contour_index, budget, plan_id in trials:
        charged, completed = executor.trial(contour_index, budget, plan_id)
        total += charged
        num_exec += 1
        if completed:
            return total, num_exec, contour_index, plan_id
    return total, num_exec, None, None


def discover(algorithm, executor, contour_index, tail_trials=None):
    """The spill-mode walk from ``contour_index`` (Algorithms 1 and 2).

    ``algorithm`` supplies the plan: ``contour_steps(contour, learned)``
    for a crossing and ``tail_trials(free_dim, learned, contour)`` for
    the 1-D phase (``tail_trials`` overrides the latter).  Returns
    ``(total charged, executions, contours visited, completing plan id,
    repeat executions, max penalty)``.

    Each pass of the loop either learns an epp or climbs a contour, so
    it runs at most ``D + num_contours`` times.
    """
    num_dims = algorithm.num_dims
    num_contours = algorithm.contours.num_contours
    learned = {}
    executed_on_contour = set()  # dims tried on this contour, for repeats
    total = 0.0
    num_exec = 0
    num_repeat = 0
    max_penalty = 1.0
    plan_id = None
    while len(learned) < num_dims - 1 and contour_index <= num_contours:
        for step in algorithm.contour_steps(contour_index, learned):
            dim = step.exec_dim
            # Section 4.2: a repeat is a second execution for an epp on
            # one contour, after another epp was fully learnt there.
            fresh = dim not in executed_on_contour
            if fresh:
                executed_on_contour.add(dim)
            else:
                num_repeat += 1
            if step.penalty > max_penalty:
                max_penalty = step.penalty
            charged, learnt_idx = executor.spill(contour_index, step, fresh)
            total += charged
            num_exec += 1
            if learnt_idx is not None:
                learned[dim] = learnt_idx
                break  # re-plan this contour with the smaller EPP set
        else:
            contour_index += 1  # Lemma 4.3: qa lies beyond this contour
            executed_on_contour.clear()
    if len(learned) >= num_dims - 1:
        # One epp left: the problem is 1-D and the classic bouquet takes
        # over from the current contour (Section 4.1).  Its charges are
        # sub-totalled, as the frontier sweep's tail drain does.
        free_dim = next(d for d in range(num_dims) if d not in learned)
        tail_total, tail_exec, tail_contour, plan_id = bouquet_ascent(
            executor,
            (tail_trials or algorithm.tail_trials)(
                free_dim, learned, contour_index),
        )
        total += tail_total
        num_exec += tail_exec
        if plan_id is not None:
            contour_index = tail_contour
    if plan_id is None:
        charged, plan_id = executor.exhausted(contour_index, learned)
        total += charged
        num_exec += 1
    return total, num_exec, contour_index, plan_id, num_repeat, max_penalty


def loop_suboptimality(algorithm, flats):
    """The per-location reference loop: one scalar ``run`` per location."""
    out = np.empty(len(flats), dtype=float)
    for k, flat in enumerate(flats):
        out[k] = algorithm.run(flat).suboptimality
    return out


def sweep_suboptimality(algorithm, points=None):
    """An algorithm's own exhaustive sweep (its ``evaluate_all``).

    The frontier-batched engine (:mod:`repro.perf.batch`) where it covers
    the algorithm's exact type; subclasses it does not cover fall back
    to :func:`loop_suboptimality`.  ``points`` optionally restricts the
    sweep to the given flat indices.
    """
    from repro.perf.batch import batched_suboptimality

    sub = batched_suboptimality(algorithm, points)
    if sub is not None:
        return sub
    return loop_suboptimality(
        algorithm,
        range(algorithm.ess.grid.num_points) if points is None
        else list(points),
    )


def normalize_location(grid, qa):
    """Accept a flat index, an integer coords tuple, or a selectivity
    vector (floats — snapped to the nearest grid point).

    Returns ``(coords, flat)``.
    """
    if hasattr(qa, "__index__"):
        flat = int(qa)
        return grid.coords_of(flat), flat
    qa = tuple(qa)
    if qa and all(hasattr(c, "__index__") for c in qa):
        coords = tuple(int(c) for c in qa)
        return coords, grid.flat_index(coords)
    coords = grid.snap(qa)
    return coords, grid.flat_index(coords)
