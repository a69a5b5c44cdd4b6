"""The Optimal Cost Surface and the POSP plan pool.

Building the ESS means calling the optimizer at every grid location and
recording (a) the optimal cost — the OCS of paper Section 2.5 — and
(b) the optimal plan's identity — whose union over the grid is the
Parametric Optimal Set of Plans (POSP).  The :class:`ESS` object bundles
that with lazily-cached per-plan cost arrays (``Cost(P, q)`` over the
whole grid) and per-plan spill orderings, which every discovery
algorithm consumes.
"""

from __future__ import annotations

import operator
import time

import numpy as np

from repro.ess.grid import ESSGrid
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span as obs_span
from repro.optimizer.cost_model import DEFAULT_COST_MODEL
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.plans import epp_total_order, plan_cost, spill_subtree_cost


class ESS:
    """The explored selectivity space for one query.

    Attributes:
        query: the :class:`~repro.query.query.SPJQuery`.
        grid: the :class:`~repro.ess.grid.ESSGrid`.
        optimal_cost: ``(N,)`` array, ``Cost(P_q, q)`` per location.
        plan_ids: ``(N,)`` int array of POSP plan identifiers.
        plans: list of plan trees; ``plans[i]`` has identifier ``i``.
        plan_keys: canonical identity strings, parallel to ``plans``.
    """

    #: Whether the surface resolves points on demand (overridden by
    #: :class:`repro.ess.lazy.LazyESS`).
    is_lazy = False

    def __init__(self, query, grid, cost_model, optimal_cost, plan_ids, plans):
        self.query = query
        self.grid = grid
        self.cost_model = cost_model
        self.optimal_cost = optimal_cost
        self.plan_ids = plan_ids
        self.plans = plans
        self.plan_keys = [p.key for p in plans]
        #: Optimizer point evaluations spent building this surface (the
        #: full grid for :meth:`build`, 0 for archive loads, and the
        #: running resolved count for lazy surfaces).
        self.optimizer_calls = 0
        self._cost_arrays = {}
        self._point_costs = {}
        self._spill_orders = {}
        self._spill_order_matrix = None
        self._subtree_costs = {}
        self._subtree_weight_cache = {}

    @classmethod
    def build(cls, query, grid=None, cost_model=DEFAULT_COST_MODEL,
              resolution=None, left_deep=False):
        """Sweep the optimizer over the grid and assemble the surface.

        ``left_deep=True`` restricts the plan search to the classical
        left-deep space (search-space ablation).
        """
        if grid is None:
            grid = ESSGrid(query.num_epps, resolution=resolution)
        optimizer = Optimizer(query, cost_model, left_deep=left_deep)
        with obs_span("ess.build", points=grid.num_points) as span:
            began = time.perf_counter()
            result = optimizer.optimize(grid.environment(),
                                        num_points=grid.num_points)
            span.set_attr("optimize_s", time.perf_counter() - began)
            groups, roots = result.plans()
        REGISTRY.incr("ess_optimizer_calls", grid.num_points)
        pool = {root.key: root for root in roots}
        plan_keys = sorted(pool)
        index = {key: i for i, key in enumerate(plan_keys)}
        plan_ids = np.array([index[root.key] for root in roots],
                            dtype=np.int32)[groups]
        plans = [pool[k] for k in plan_keys]
        ess = cls(
            query=query,
            grid=grid,
            cost_model=cost_model,
            optimal_cost=np.asarray(result.optimal_cost, dtype=float),
            plan_ids=plan_ids,
            plans=plans,
        )
        ess.optimizer_calls = grid.num_points
        return ess

    # ------------------------------------------------------------------
    # Derived, cached per-plan data
    # ------------------------------------------------------------------

    @property
    def posp_size(self):
        """Number of distinct POSP plans over the grid."""
        return len(self.plans)

    # ------------------------------------------------------------------
    # Lazy-resolution protocol (no-ops on the fully materialized surface;
    # repro.ess.lazy.LazyESS overrides all three)
    # ------------------------------------------------------------------

    @property
    def num_resolved(self):
        """Grid points with known optimal plan/cost (all, when eager)."""
        return self.grid.num_points

    def resolve(self, flats):
        """Ensure the given flats are resolved (eager: already are)."""
        return 0

    def resolve_all(self):
        """Ensure the whole grid is resolved (eager: already is)."""
        return 0

    def optimal_cost_at(self, flats):
        """Optimal costs at an array of flats, resolving if lazy.

        The engine-facing gather: restricted sweeps call this instead of
        materializing ``optimal_cost``, so a lazy surface resolves only
        the requested points.
        """
        flats = np.asarray(flats, dtype=np.int64)
        return np.asarray(self.optimal_cost[flats], dtype=float)

    @property
    def min_cost(self):
        """``C_min`` — the optimal cost at the origin (PCM minimum)."""
        return float(self.optimal_cost.min())

    @property
    def max_cost(self):
        """``C_max`` — the optimal cost at the terminus (PCM maximum)."""
        return float(self.optimal_cost.max())

    #: Cap on cached per-plan cost surfaces; recomputation is a cheap
    #: vectorized tree walk, so a bounded cache trades a little CPU for
    #: predictable memory on queries with large POSPs.
    COST_CACHE_LIMIT = 512

    def _cost_array_hit(self, plan_id):
        """Cache lookup with an LRU recency refresh on hit.

        Eviction pops the dict's first entry, so hits must move their
        key to the end — otherwise the cache degrades to FIFO and
        AlignedBound's revisit-heavy replacement searches thrash on
        plans that were inserted early but stay hot.
        """
        cached = self._cost_arrays.get(plan_id)
        if cached is not None:
            del self._cost_arrays[plan_id]
            self._cost_arrays[plan_id] = cached
        return cached

    def plan_cost_array(self, plan_id):
        """``Cost(P, q)`` for a fixed plan, over the whole grid (cached)."""
        cached = self._cost_array_hit(plan_id)
        if cached is None:
            plan = self.plans[plan_id]
            cached = np.broadcast_to(
                np.asarray(
                    plan_cost(plan, self.query, self.cost_model, self.grid.environment()),
                    dtype=float,
                ),
                (self.grid.num_points,),
            )
            if len(self._cost_arrays) >= self.COST_CACHE_LIMIT:
                self._cost_arrays.pop(next(iter(self._cost_arrays)))
            self._cost_arrays[plan_id] = cached
        return cached

    def plan_cost_at(self, plan_id, flat):
        """``Cost(P, q)`` for a plan at one grid location.

        Routed through :meth:`plan_cost_at_points` so large grids take
        the point-wise memo path instead of materializing a full-grid
        cost array for a single lookup (identical values either way —
        the cost expressions are elementwise).
        """
        return float(
            self.plan_cost_at_points(plan_id, np.asarray([flat]))[0]
        )

    #: Grids at or below this many points always evaluate plan costs as
    #: one full-grid vectorized pass (amortized across every later
    #: lookup of the same plan) instead of the point-wise memo path.
    POINTWISE_EVAL_MIN_GRID = 1 << 18

    def plan_cost_at_points(self, plan_id, flat_indices):
        """``Cost(P, q)`` at a restricted set of locations.

        On small grids this is a gather from the plan's cached full-grid
        cost array — one vectorized evaluation serves every later lookup
        of the same plan, which is what AlignedBound's replacement-plan
        searches do thousands of times per sweep.  Above
        :data:`POINTWISE_EVAL_MIN_GRID` points the plan's cost
        expression is evaluated over just the requested points —
        O(len(flat_indices)) instead of a full-grid sweep — which keeps
        large-POSP queries (6-D) tractable.  Point-wise results are
        memoized in a flat ndarray plus a validity mask (the searches
        revisit heavily-overlapping point sets across discovery states),
        so both the hit and miss paths are single vectorized gathers
        instead of per-element dict round-trips.
        """
        cached = self._cost_array_hit(plan_id)
        if cached is not None:
            return np.asarray(cached[flat_indices], dtype=float)
        if self.grid.num_points <= self.POINTWISE_EVAL_MIN_GRID:
            return np.asarray(
                self.plan_cost_array(plan_id)[flat_indices], dtype=float
            )
        flats = np.asarray(flat_indices, dtype=np.int64)
        memo = self._point_costs.get(plan_id)
        if memo is None:
            memo = (
                np.empty(self.grid.num_points, dtype=float),
                np.zeros(self.grid.num_points, dtype=bool),
            )
            self._point_costs[plan_id] = memo
        values, valid = memo
        missing = flats[~valid[flats]]
        if missing.size:
            grid = self.grid
            miss = np.unique(missing)
            # environment_at is pure stride arithmetic — O(len(miss)),
            # no full-grid selectivity views on these large grids.
            env = grid.environment_at(miss)
            cost = plan_cost(self.plans[plan_id], self.query,
                             self.cost_model, env)
            values[miss] = np.broadcast_to(
                np.asarray(cost, dtype=float), (miss.size,)
            )
            valid[miss] = True
        return values[flats].astype(float, copy=True)

    def spill_order(self, plan_id):
        """The plan's epp total order as a list of ESS dimensions."""
        cached = self._spill_orders.get(plan_id)
        if cached is None:
            names = epp_total_order(self.plans[plan_id], self.query)
            cached = [self.query.epp_dimension(n) for n in names]
            self._spill_orders[plan_id] = cached
        return cached

    def spill_dimension(self, plan_id, remaining_dims):
        """First unlearned dimension in the plan's spill order, or None."""
        remaining = set(remaining_dims)
        for dim in self.spill_order(plan_id):
            if dim in remaining:
                return dim
        return None

    def spill_order_matrix(self):
        """All spill orders as one ``(|POSP|, D)`` int matrix (cached).

        Row ``pid`` holds :meth:`spill_order` padded with ``-1``; the
        batched sweep engines resolve "first unlearned dimension in the
        spill order" for whole contours with a couple of array ops
        instead of a per-location Python loop.
        """
        if self._spill_order_matrix is None:
            matrix = np.full(
                (self.posp_size, self.grid.num_dims), -1, dtype=np.int64
            )
            for pid in range(self.posp_size):
                order = self.spill_order(pid)
                matrix[pid, : len(order)] = order
            self._spill_order_matrix = matrix
        return self._spill_order_matrix

    def spill_cost_curve(self, plan_id, dim, fixed_coords):
        """Spill-subtree cost of a plan as a function of one epp: the
        ``(resolution[dim],)`` cost of executing only the subtree rooted
        at the ``dim`` epp's node as its selectivity sweeps the grid,
        every other dimension pinned at ``fixed_coords`` (a full coords
        tuple; the ``dim`` entry is ignored).  One row of
        :meth:`spill_cost_curves`."""
        return self.spill_cost_curves([plan_id], [dim], [fixed_coords])[0]

    def spill_cost_curves(self, plan_ids, dims, coords):
        """:meth:`spill_cost_curve` of several spill executions at once:
        plan ``plan_ids[i]`` spilling on ``dims[i]`` at the full coords
        row ``coords[i]``.  Returns the list of curves.

        Cached on (plan, dim, relevant coords): only coordinates of epps
        inside the spilled subtree can influence a curve.  The missing
        curves are evaluated in one broadcast cost-model call per (plan,
        dim) — the pinned selectivities as ``(k, 1)`` columns against
        the swept dimension's grid values — which performs, per element,
        the float operations of a one-location evaluation.
        """
        grid = self.grid
        cache = self._subtree_costs
        keys, missing = [], {}
        for plan_id, dim, row in zip(plan_ids, dims, coords):
            # The weights are the flat-index strides of the relevant
            # dimensions, 0 elsewhere: one number per combination.
            key = (plan_id, dim, sum(map(
                operator.mul, row, self._subtree_weights(plan_id, dim)
            )))
            keys.append(key)
            if key not in cache:
                missing.setdefault(key[:2], {})[key] = row
        for (plan_id, dim), rows in missing.items():
            at = np.asarray(list(rows.values()))
            env = {d: grid.values[d][at[:, d]][:, None]
                   for d in range(grid.num_dims)}
            env[dim] = grid.values[dim]
            cache.update(zip(rows, np.broadcast_to(
                np.asarray(
                    spill_subtree_cost(
                        self.plans[plan_id], self.query, self.cost_model,
                        env, self.query.epps[dim].name,
                    ),
                    dtype=float,
                ),
                (len(at), grid.resolution[dim]),
            )))
        return [cache[key] for key in keys]

    def _subtree_weights(self, plan_id, dim):
        """Flat-index strides of the dimensions the ``(plan, dim)`` spill
        curve depends on besides ``dim`` — the epps inside the spilled
        subtree — and 0 for the others (cached: the plan-tree walk
        dominated the curve lookup)."""
        cached = self._subtree_weight_cache.get((plan_id, dim))
        if cached is None:
            from repro.optimizer.plans import find_epp_node  # avoid cycle

            query = self.query
            node = find_epp_node(self.plans[plan_id], query.epps[dim].name)
            inside = {
                query.epp_dimension(pred.name)
                for sub in node.iter_nodes()
                for pred in sub.applied_preds if pred.error_prone
            } - {dim}
            cached = self._subtree_weight_cache[plan_id, dim] = [
                stride if d in inside else 0
                for d, stride in enumerate(self.grid.strides)
            ]
        return cached

    def suboptimality_surface(self, plan_id):
        """``Cost(P, q) / Cost(P_q, q)`` over the grid for a fixed plan."""
        return self.plan_cost_array(plan_id) / self.optimal_cost

    def __repr__(self):
        return (
            f"ESS({self.query.name!r}, grid={self.grid.shape}, "
            f"|POSP|={self.posp_size})"
        )
