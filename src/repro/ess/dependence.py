"""Dependent selectivities: the paper's stated future work, implemented.

The framework assumes selectivity independence (SI, Section 2.4): the
cardinality of a subtree applying several epps is the product of their
selectivities.  Real data violates this — correlated predicates make the
joint selectivity deviate from the product — and both the paper's
conclusion and Section 2.4 flag the extension to dependent selectivities
as future work.

This module models the violation and measures its impact:

* **Correlation model.**  For a correlated pair of epps ``(a, b)`` with
  strength ``theta`` in [0, 1], the joint selectivity is the fuzzy-AND
  interpolation ``(s_a * s_b)^(1-theta) * min(s_a, s_b)^theta`` —
  ``theta = 0`` is independence, ``theta = 1`` full correlation (the
  PostgreSQL-style bound).  The joint is monotone in each marginal, so
  the corrected costs still satisfy PCM.
* **Discovery under violation.**  The *machinery* (POSP, contours, plan
  choices) is still built under SI — that is what a deployed system
  would do, since it cannot see the dependency — but execution outcomes
  (completions, learnt thresholds, charges) follow the *corrected*
  costs.  :class:`CorrelatedSpillBound` runs exactly that scenario, so
  the degradation of the MSO guarantee under SI violation becomes a
  measurable quantity (see the dependence ablation benchmark).

SI violation is exactly a structured cost-model error, so Section 7's
``(1 + delta)^2`` analysis gives the reference envelope: with the
correction factor bounded in ``[1/(1+delta), 1+delta]`` on the explored
region, the corrected MSO stays within ``(D^2 + 3D)(1+delta)^2``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from repro.core.discovery import (
    SimulatedExecutor,
    budget_covers,
    discover,
)
from repro.core.spill_bound import SpillBound, learnable_index
from repro.errors import DiscoveryError, QueryError
from repro.optimizer.plans import (
    ScanNode,
    _node_cost,
    find_epp_node,
    predicate_selectivity,
)
from repro.optimizer.plans import JoinNode, INDEX_NL_JOIN


@dataclass(frozen=True)
class CorrelationSpec:
    """A pairwise dependency between two ESS dimensions."""

    dim_a: int
    dim_b: int
    theta: float

    def __post_init__(self):
        if self.dim_a == self.dim_b:
            raise QueryError("a correlation needs two distinct dimensions")
        if not 0.0 <= self.theta <= 1.0:
            raise QueryError("correlation strength must lie in [0, 1]")

    @property
    def dims(self):
        return frozenset((self.dim_a, self.dim_b))


def joint_correction(sel_a, sel_b, theta):
    """Multiplicative correction to the SI product for one pair.

    ``joint = product * correction`` with
    ``correction = (min / product)^theta >= 1``.
    """
    product = np.asarray(sel_a, dtype=float) * np.asarray(sel_b, dtype=float)
    smallest = np.minimum(sel_a, sel_b)
    return (smallest / np.maximum(product, 1e-300)) ** theta


def _correlated_cardinalities(plan, query, env, specs):
    """Per-node output cardinalities with joint corrections applied.

    The correction for a pair activates at the node where the *second*
    predicate of the pair is applied — the first point where the joint
    materializes — and propagates upward like any cardinality.
    """
    by_pair = {spec.dims: spec for spec in specs}
    cards = {}

    def walk(node):
        if isinstance(node, ScanNode):
            card = float(query.schema.table(node.table).cardinality)
            dims_below = set()
            for f in node.applied_preds:
                card = card * predicate_selectivity(f, query, env)
                if f.error_prone:
                    dims_below.add(query.epp_dimension(f.name))
            cards[id(node)] = card
            return card, dims_below
        outer_card, outer_dims = walk(node.outer)
        inner_card, inner_dims = walk(node.inner)
        card = outer_card * inner_card
        dims_below = outer_dims | inner_dims
        for pred in node.applied_preds:
            card = card * predicate_selectivity(pred, query, env)
            if not pred.error_prone:
                continue
            dim = query.epp_dimension(pred.name)
            for other in dims_below:
                spec = by_pair.get(frozenset((dim, other)))
                if spec is not None:
                    card = card * joint_correction(
                        env[dim], env[other], spec.theta
                    )
            dims_below.add(dim)
        cards[id(node)] = card
        return card, dims_below

    walk(plan)
    return cards


def correlated_plan_cost(plan, query, cost_model, env, specs):
    """``Cost(P, q)`` under the corrected (dependent) cardinalities."""
    cards = _correlated_cardinalities(plan, query, env, specs)
    inl_inner = {
        id(node.inner)
        for node in plan.iter_nodes()
        if isinstance(node, JoinNode) and node.op == INDEX_NL_JOIN
    }
    total = 0.0
    for node in plan.iter_nodes():
        total = total + _node_cost(node, query, cost_model, env, cards,
                                   inl_inner)
    return total


def correlated_subtree_cost(plan, query, cost_model, env, epp_name, specs):
    """Spill-subtree cost under corrected cardinalities."""
    node = find_epp_node(plan, epp_name)
    if node is None:
        raise DiscoveryError(f"plan {plan.key} does not apply {epp_name!r}")
    cards = _correlated_cardinalities(node, query, env, specs)
    inl_inner = {
        id(sub.inner)
        for sub in node.iter_nodes()
        if isinstance(sub, JoinNode) and sub.op == INDEX_NL_JOIN
    }
    total = 0.0
    for sub in node.iter_nodes():
        total = total + _node_cost(sub, query, cost_model, env, cards,
                                   inl_inner)
    return total


class CorrelatedWorld:
    """Corrected-cost oracle over a (SI-built) ESS."""

    def __init__(self, ess, specs):
        self.ess = ess
        self.specs = tuple(specs)
        self._cost_cache = {}
        self._optimal = None

    def plan_cost_array(self, plan_id):
        cached = self._cost_cache.get(plan_id)
        if cached is None:
            env = self.ess.grid.environment()
            cached = np.broadcast_to(
                np.asarray(
                    correlated_plan_cost(
                        self.ess.plans[plan_id], self.ess.query,
                        self.ess.cost_model, env, self.specs,
                    ),
                    dtype=float,
                ),
                (self.ess.grid.num_points,),
            )
            self._cost_cache[plan_id] = cached
        return cached

    def optimal_cost(self):
        """Best corrected cost achievable by any POSP plan, per location.

        (The true correlated optimum could use non-POSP plans; the POSP
        pool is the executable set, so this is the relevant oracle.)
        """
        if self._optimal is None:
            best = None
            for pid in range(self.ess.posp_size):
                cost = self.plan_cost_array(pid)
                best = cost.copy() if best is None else np.minimum(best, cost)
            self._optimal = best
        return self._optimal


class _CorrectedExecutor(SimulatedExecutor):
    """Simulated executions whose plan costs follow the corrected world
    (spill steps already carry corrected curves, from
    :meth:`CorrelatedSpillBound._plan_states`)."""

    __slots__ = ("world",)

    def __init__(self, algorithm, qa, trace):
        super().__init__(algorithm.ess, qa, trace)
        self.world = algorithm.world

    def trial(self, contour_index, budget, plan_id):
        # Unrecorded: the corrected tail was never part of a trace.
        cost_here = float(self.world.plan_cost_array(plan_id)[self.flat])
        completed = budget_covers(cost_here, budget)
        return (cost_here if completed else budget), completed

    def exhausted(self, contour_index, learned):
        """Forced completion: run the SI-optimal plan for the location
        to the end, paying its corrected cost."""
        pid = int(self.ess.plan_ids[self.flat])
        return float(self.world.plan_cost_array(pid)[self.flat]), pid


class CorrelatedSpillBound(SpillBound):
    """SpillBound executing in a world that violates SI.

    Plan choices, contours and budgets come from the SI machinery (the
    deployed system cannot see the dependency); execution outcomes and
    charges follow the corrected costs.  The structural guarantee no
    longer formally applies — measuring how far the empirical MSO drifts
    is the extension experiment.
    """

    def __init__(self, ess, specs, contour_set=None, cost_ratio=2.0):
        super().__init__(ess, contour_set, cost_ratio)
        self.world = CorrelatedWorld(ess, specs)

    def _plan_states(self, contour_index, learned_keys):
        """SI plan choices with corrected learning thresholds."""
        return [
            [self._corrected(step) for step in steps]
            for steps in super()._plan_states(contour_index, learned_keys)
        ]

    def _corrected(self, step):
        curve = self._corrected_curve(step, step.dim)
        # No Lemma 3.1 floor clamp: under SI violation the budget need
        # not cover the corrected spill cost at q*, and the possibility
        # of under-learning is part of the phenomenon.
        return replace(
            step, curve=curve,
            learn_idx=learnable_index(curve, step.budget, 0),
        )

    def _corrected_curve(self, step, dim):
        grid = self.ess.grid
        env = {
            d: grid.selectivity(d, step.qstar_coords[d])
            for d in range(grid.num_dims)
        }
        env[dim] = grid.values[dim]
        curve = correlated_subtree_cost(
            self.ess.plans[step.plan_id], self.ess.query,
            self.ess.cost_model, env, self.ess.query.epps[dim].name,
            self.world.specs,
        )
        return np.broadcast_to(
            np.asarray(curve, dtype=float), (grid.resolution[dim],)
        )

    def _tail_trials(self, flat, free_dim, learned, start_contour):
        """SpillBound's tail, then a safety ladder extension (the SI band
        of qa no longer guarantees completion): retry the top contour's
        plans — or, where the line has none, the SI-optimal plan at
        ``flat`` — with budgets growing by the contour ratio."""
        yield from self.tail_trials(free_dim, learned, start_contour)
        top = self.contours.num_contours
        plan_ids = ([pid for _, _, pid in
                     self.tail_trials(free_dim, learned, top)]
                    or [int(self.ess.plan_ids[flat])])
        for extra in range(1, 8):
            budget = self.contours.budget(top) * (
                self.contours.cost_ratio ** extra)
            for pid in plan_ids:
                yield top + extra, budget, pid

    def run(self, qa, trace=False):
        executor = _CorrectedExecutor(self, qa, trace)
        result = executor.result(*discover(
            self, executor, self.prior_schedule().start_for(executor.flat),
            tail_trials=partial(self._tail_trials, executor.flat),
        ))
        # Re-judge against the corrected oracle.
        result.optimal_cost = float(self.world.optimal_cost()[executor.flat])
        return result
