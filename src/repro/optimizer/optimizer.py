"""A Selinger-style cost-based optimizer with selectivity injection.

This is the substrate that plays the role of the paper's modified
PostgreSQL optimizer.  Two capabilities matter to the discovery
algorithms:

* **Selectivity injection** — the optimizer plans a query *as if* the
  error-prone predicates had caller-chosen selectivities.  Repeated
  injection over the ESS grid yields the POSP and the Optimal Cost
  Surface (paper Section 2.2).
* **Vectorized grid sweeps** — rather than invoking the planner once per
  grid location, the dynamic program is evaluated with numpy arrays over
  *all* locations at once: each DP entry holds the best cost per
  location plus the argmin alternative, and plans are reconstructed per
  location from the choice arrays afterwards.
* **Point-sized calls** — "optimize at q" is also the inner loop of the
  lazy, contour-focused ESS, thousands of calls of one to a few dozen
  points each.  The alternative lists are therefore compiled once per
  optimizer into a flat program and small batches are evaluated
  level-stacked: a few dozen numpy calls per sweep instead of a dozen
  per alternative (:meth:`Optimizer.optimize`).

The search space is bushy join trees over connected subgraphs (no cross
products), with physical alternatives per join (hash, sort-merge,
nested-loop, index nested-loop) and per scan (sequential, index).
"""

from __future__ import annotations

import itertools
import time
from typing import NamedTuple

import numpy as np

from repro.errors import OptimizerError
from repro.obs.trace import current_span
from repro.optimizer.cost_model import DEFAULT_COST_MODEL
from repro.optimizer.plans import (
    HASH_JOIN,
    INDEX_NL_JOIN,
    INDEX_SCAN,
    MERGE_JOIN,
    NL_JOIN,
    SEQ_SCAN,
    JoinNode,
    ScanNode,
    predicate_selectivity,
)

#: Largest batch :meth:`Optimizer.optimize` evaluates level-stacked.  The
#: stacked layout costs a few dozen numpy calls per sweep whatever the
#: query, but gathers ``(alternatives, N)`` temporaries; the layouts cross
#: between 600 and 1,200 points and past that the per-alternative loop is
#: bandwidth-bound and 2-4x faster (docs/performance.md, "The offline
#: budget").
STACKED_MAX_POINTS = 512

#: Stack order of a level's alternatives (scans only meet on level 1).
_OPERATORS = (SEQ_SCAN, INDEX_SCAN, HASH_JOIN, NL_JOIN, MERGE_JOIN,
              INDEX_NL_JOIN)


def group_rows(rows, radices):
    """Group the equal rows of a small-integer matrix, in sorted order.

    Returns ``(first, inverse)`` exactly as ``np.unique(rows, axis=0,
    return_index=True, return_inverse=True)`` does (each group's first
    row, in lexicographic order of the rows, and each row's group)
    without sorting the rows as structured records.  Column ``c`` holds
    entries in ``[-1, radices[c])``: it is a digit of base
    ``radices[c] + 1`` of an int64 code, column 0 the most significant.
    (Digits from -1 rather than 0 shift every code by one constant,
    which changes no comparison.)  When the next digit would take the
    code past 62 bits, the code is first ranked with a 1-D
    ``np.unique`` (an order-preserving relabel to fewer than ``n``
    values) and packing continues on the rank.
    """
    rows = np.asarray(rows)
    code = np.zeros(rows.shape[0], dtype=np.int64)
    span = 1  # every code is below this in magnitude
    for column, radix in enumerate(radices):
        base = int(radix) + 1
        if span * base > 1 << 62:
            values, code = np.unique(code, return_inverse=True)
            span = len(values)
        code *= base
        code += rows[:, column]
        span *= base
    _, first, inverse = np.unique(code, return_index=True,
                                  return_inverse=True)
    return first, inverse


class _ScanAlt:
    """A scan alternative for a singleton subset."""

    __slots__ = ("method", "table", "filters")

    def __init__(self, method, table, filters):
        self.method = method
        self.table = table
        self.filters = filters


class _JoinAlt:
    """A join alternative: ``op`` over ``(outer_mask, inner_mask)``."""

    __slots__ = ("op", "outer_mask", "inner_mask", "preds")

    def __init__(self, op, outer_mask, inner_mask, preds):
        self.op = op
        self.outer_mask = outer_mask
        self.inner_mask = inner_mask
        self.preds = preds


class OptimizationResult:
    """The outcome of one (possibly grid-wide) optimization sweep.

    Attributes:
        optimal_cost: ndarray of shape ``(N,)`` — ``Cost(P_q, q)`` per
            location.
    """

    def __init__(self, optimizer, optimal_cost, choice, num_points):
        self._optimizer = optimizer
        self._choice = choice  # per program row, (N,) alternative indices
        self.num_points = num_points
        self.optimal_cost = optimal_cost

    def choice(self, mask):
        """Chosen alternative index per location for one connected mask."""
        return self._choice[self._optimizer._row_of[mask]]

    def plan_at(self, point):
        """Reconstruct the optimal :class:`PlanNode` tree at one location."""
        return self._build(self._optimizer.full_mask, point, {})

    def plans(self, nodes=None):
        """Reconstruct plans for every location, deduplicated.

        Two locations share a plan exactly when they agree on every
        *load-bearing* choice entry — the DP cells actually consulted
        while walking the chosen tree top-down (a cell for a subset that
        the chosen join order never materializes cannot influence the
        plan).  Locations are therefore grouped by their signature of
        load-bearing entries (:func:`group_rows`, an integer sort) and
        the recursive reconstruction runs once per distinct signature —
        O(|POSP|)-ish recursions instead of one per grid point.  What
        remains per location is a few array passes per branching DP
        row, so the sweep itself (:meth:`Optimizer.optimize`), not this
        reconstruction, dominates an eager build on a fine grid.

        Args:
            nodes: optional node cache shared by successive sweeps of
                one optimizer (trees are immutable).  It maps plan keys
                to their :class:`PlanNode` and load-bearing signatures
                (``bytes``) to the root they reconstruct, so a signature
                seen by an earlier sweep costs a dict hit.

        Returns:
            (groups, roots): ``groups`` is an ``(N,)`` int64 array, the
            signature group of each location (groups are numbered in
            lexicographic order of their signatures); ``roots[g]`` is
            the shared :class:`PlanNode` tree of group ``g``.  Distinct
            groups hold distinct signatures; callers identify plans by
            ``root.key``.  An active trace span (an ESS build or lazy
            resolve) gains ``group_s``, the signature walk and grouping,
            and ``reconstruct_s``, the tree recursion.
        """
        began = time.perf_counter()
        optimizer = self._optimizer
        rows = optimizer._rows
        n = self.num_points
        if nodes is None:
            nodes = {}
        # Top-down reachability sweep: parents have strictly more bits
        # than their children, so descending-popcount order processes
        # every parent before any of its children.
        reach = [None] * len(rows)
        reach[-1] = np.ones(n, dtype=bool)
        columns = []
        signature_columns = []
        radices = []
        for row in optimizer._top_down:
            reached = reach[row]
            if reached is None or not reached.any():
                continue
            alts = rows[row].alts
            if len(alts) == 1:
                taken = [(0, reached)]
            else:
                chosen = self._choice[row]
                # Non-load-bearing entries are masked to -1 so they
                # cannot split otherwise-identical plans.
                columns.append(optimizer._signature_column[row])
                radices.append(len(alts))
                signature_columns.append(
                    np.where(reached, chosen, -1).astype(np.int32)
                )
                taken = [
                    (idx, reached & (chosen == idx))
                    for idx in np.flatnonzero(
                        np.bincount(chosen[reached], minlength=len(alts))
                    )
                ]
            for idx, selected in taken:
                op, outer, inner, _, _ = alts[idx]
                if outer < 0:
                    continue  # a scan
                prev = reach[outer]
                reach[outer] = (
                    selected.copy() if prev is None else prev | selected
                )
                if op != INDEX_NL_JOIN:  # INL never walks its inner side
                    prev = reach[inner]
                    reach[inner] = (
                        selected.copy() if prev is None else prev | selected
                    )
        if signature_columns:
            # Column-major: group_rows reads one column at a time.
            signatures = np.stack(signature_columns).T
        else:  # a query with no plan choices anywhere
            signatures = np.empty((n, 0), dtype=np.int32)
        representatives, groups = group_rows(signatures, radices)
        grouped = time.perf_counter()
        # Signatures hold only the columns this sweep reached; spread
        # over every branching mask they identify a tree across sweeps.
        canonical = np.full(
            (len(representatives), len(optimizer._signature_column)), -1,
            dtype=np.int32,
        )
        canonical[:, columns] = signatures[representatives]
        roots = []
        for point, signature in zip(representatives, canonical):
            signature = signature.tobytes()
            root = nodes.get(signature)
            if root is None:
                root = nodes[signature] = self._build(
                    optimizer.full_mask, int(point), nodes
                )
            roots.append(root)
        # The enclosing span (an ESS build or lazy resolve) learns where
        # the reconstruction's time went.
        span = current_span()
        if span is not None:
            span.set_attr("group_s", grouped - began)
            span.set_attr("reconstruct_s", time.perf_counter() - grouped)
        return groups, roots

    def _build(self, mask, point, cache):
        optimizer = self._optimizer
        alts = optimizer.alternatives[mask]
        idx = int(self.choice(mask)[point]) if len(alts) > 1 else 0
        alt = alts[idx]
        if mask & (mask - 1) == 0:
            node = ScanNode(alt.table, alt.method, alt.filters)
        else:
            outer = self._build(alt.outer_mask, point, cache)
            if alt.op == INDEX_NL_JOIN:
                # The indexed inner side is accessed through its index,
                # never scanned — pin its identity so plan keys do not
                # vary with a cost-irrelevant scan choice.
                pinned = optimizer.alternatives[alt.inner_mask][0]
                inner = ScanNode(pinned.table, INDEX_SCAN, pinned.filters)
            else:
                inner = self._build(alt.inner_mask, point, cache)
            node = JoinNode(alt.op, outer, inner, alt.preds)
        shared = cache.get(node.key)
        if shared is not None:
            return shared
        cache[node.key] = node
        return node


class Optimizer:
    """Dynamic-programming join-order optimizer for one query.

    Construction precomputes the connected-subgraph structure; each call
    to :meth:`optimize` performs a sweep for one selectivity environment
    (a single point or the full grid).
    """

    def __init__(self, query, cost_model=DEFAULT_COST_MODEL, left_deep=False):
        """Args:
            query: the SPJ query to plan.
            cost_model: cost constants.
            left_deep: restrict the search to left-deep trees (inner
                side always a base relation) — the classical Selinger
                space; default searches bushy trees too.
        """
        self.query = query
        self.cost_model = cost_model
        self.left_deep = bool(left_deep)
        self.tables = list(query.tables)
        self.all_tables = frozenset(self.tables)
        self._bit = {t: 1 << i for i, t in enumerate(self.tables)}
        n = len(self.tables)
        self.full_mask = (1 << n) - 1

        # Adjacency bitmasks from the join graph.
        self._adj = [0] * n
        for i, t in enumerate(self.tables):
            for neighbor in query.join_graph.neighbors(t):
                self._adj[i] |= self._bit[neighbor]

        # Per-predicate endpoint masks.
        self._pred_masks = [
            (self._bit[p.left_table] | self._bit[p.right_table], p)
            for p in query.joins
        ]

        self._connected_masks = self._enumerate_connected()
        self.alternatives = self._enumerate_alternatives()
        self._compile()

    # ------------------------------------------------------------------
    # Static structure
    # ------------------------------------------------------------------

    def _is_connected(self, mask):
        """Connectivity of a subset mask via bit-parallel BFS."""
        if mask == 0:
            return False
        start = mask & -mask
        frontier = start
        seen = start
        while frontier:
            reach = 0
            m = frontier
            while m:
                bit = m & -m
                m ^= bit
                reach |= self._adj[bit.bit_length() - 1]
            frontier = reach & mask & ~seen
            seen |= frontier
        return seen == mask

    def _enumerate_connected(self):
        masks = [
            mask
            for mask in range(1, self.full_mask + 1)
            if self._is_connected(mask)
        ]
        masks.sort(key=lambda m: (bin(m).count("1"), m))
        return masks

    def _cross_preds(self, mask_a, mask_b):
        found = []
        for endpoint_mask, pred in self._pred_masks:
            if (endpoint_mask & mask_a) and (endpoint_mask & mask_b) and (
                endpoint_mask & ~(mask_a | mask_b)
            ) == 0:
                found.append(pred)
        return tuple(found)

    def _table_of(self, singleton_mask):
        return self.tables[singleton_mask.bit_length() - 1]

    def _enumerate_alternatives(self):
        """Build the static alternative lists for every connected mask."""
        query = self.query
        alternatives = {}
        connected = set(self._connected_masks)
        for mask in self._connected_masks:
            if mask & (mask - 1) == 0:  # singleton
                table = self._table_of(mask)
                filters = tuple(query.filters_on(table))
                alts = [_ScanAlt(SEQ_SCAN, table, filters)]
                indexed_filters = [
                    f for f in filters
                    if query.schema.table(table).column(f.column).indexed
                ]
                if indexed_filters:
                    alts.append(_ScanAlt(INDEX_SCAN, table, filters))
                alternatives[mask] = alts
                continue

            alts = []
            sub = (mask - 1) & mask
            while sub:
                rest = mask ^ sub
                if self.left_deep and rest & (rest - 1):
                    sub = (sub - 1) & mask
                    continue  # left-deep: inner must be a base relation
                if sub in connected and rest in connected:
                    preds = self._cross_preds(sub, rest)
                    if preds:
                        alts.append(_JoinAlt(HASH_JOIN, sub, rest, preds))
                        alts.append(_JoinAlt(NL_JOIN, sub, rest, preds))
                        # Merge join is symmetric: enumerate one
                        # orientation (left-deep search only sees one
                        # anyway, so it keeps every split).
                        if self.left_deep or sub < rest:
                            alts.append(_JoinAlt(MERGE_JOIN, sub, rest, preds))
                        if rest & (rest - 1) == 0:
                            inner_table = self._table_of(rest)
                            if self._inl_applicable(inner_table, preds):
                                alts.append(
                                    _JoinAlt(INDEX_NL_JOIN, sub, rest, preds)
                                )
                sub = (sub - 1) & mask
            if not alts:
                raise OptimizerError(
                    f"no join alternatives for subset {mask:b} of "
                    f"query {query.name!r}"
                )
            alternatives[mask] = alts
        return alternatives

    def _inl_applicable(self, inner_table, preds):
        """Index NL requires an index on the inner join column."""
        table = self.query.schema.table(inner_table)
        for pred in preds:
            if inner_table in pred.tables:
                if table.column(pred.column_for(inner_table)).indexed:
                    return True
        return False

    # ------------------------------------------------------------------
    # The compiled program
    # ------------------------------------------------------------------

    def _compile(self):
        """Flatten the alternative lists into the evaluation program.

        Everything an evaluation needs from the query and the schema is
        looked up here, once: masks become row numbers (``_rows``
        follows ``_connected_masks``, so a popcount level is a
        contiguous row range and every alternative's inputs sit in
        earlier rows), predicates become positions in one selectivity
        table (``_sel_consts``, with the ``_sel_epps`` positions filled
        from the environment per call) and base cardinalities become
        floats.  ``_levels`` is the same table regrouped by level and
        operator for :meth:`_evaluate_stacked`.
        """
        query = self.query
        schema = query.schema
        row_of = {mask: row for row, mask in enumerate(self._connected_masks)}
        positions = {}
        consts = []
        epps = []

        def source(pred):
            position = positions.get(pred.name)
            if position is None:
                position = positions[pred.name] = len(consts)
                if pred.error_prone:
                    consts.append(np.nan)  # filled from the environment
                    epps.append((position, pred))
                else:
                    consts.append(float(pred.selectivity))
            return position

        def base_of(singleton_mask):
            table = schema.table(self._table_of(singleton_mask))
            return float(table.cardinality)

        rows = []
        for mask in self._connected_masks:
            alts = self.alternatives[mask]
            if mask & (mask - 1) == 0:
                table = schema.table(self._table_of(mask))
                base = base_of(mask)
                filters = alts[0].filters
                # Fetch volume: rows matched by the indexed filters only.
                fetch = tuple(
                    source(f) for f in filters
                    if table.column(f.column).indexed
                )
                rows.append(_Row(
                    np.array([base]), -1, -1,
                    tuple(source(f) for f in filters),
                    tuple(_Alt(alt.method, -1, -1, base, fetch)
                          for alt in alts),
                ))
                continue
            # Any connected split reproduces the subset cardinality
            # (order-independence under selectivity independence).
            split = alts[0]
            rows.append(_Row(
                None, row_of[split.outer_mask], row_of[split.inner_mask],
                tuple(source(p) for p in split.preds),
                tuple(
                    _Alt(alt.op, row_of[alt.outer_mask],
                         row_of[alt.inner_mask],
                         base_of(alt.inner_mask)
                         if alt.op == INDEX_NL_JOIN else 0.0, ())
                    for alt in alts
                ),
            ))
        self._row_of = row_of
        self._rows = rows
        self._sel_consts = np.asarray(consts, dtype=float)[:, None]
        self._sel_epps = epps
        self._levels = self._stack_levels()
        # Plan reconstruction walks rows parents-first and signs a plan
        # by its choices at the branching rows, one column each.
        self._top_down = sorted(
            range(len(rows)),
            key=lambda row: -bin(self._connected_masks[row]).count("1"),
        )
        branching = [row for row in self._top_down if len(rows[row].alts) > 1]
        self._signature_column = {
            row: column for column, row in enumerate(branching)
        }

    def _stack_levels(self):
        """Regroup the row table by popcount level and operator."""
        levels = []
        hi = 0
        for _, masks in itertools.groupby(
            self._connected_masks, key=lambda mask: bin(mask).count("1")
        ):
            lo, hi = hi, hi + len(list(masks))
            members = self._rows[lo:hi]
            # Stack order groups the level's alternatives by operator;
            # the pad matrix maps (mask, alternative index) back to it,
            # short lists padded with the stack's trailing +inf row.
            order = sorted(
                ((member, idx)
                 for member in range(hi - lo)
                 for idx in range(len(members[member].alts))),
                key=lambda at: _OPERATORS.index(members[at[0]].alts[at[1]].op),
            )
            stacked = [members[member].alts[idx] for member, idx in order]
            pad = np.full(
                (hi - lo, max(len(row.alts) for row in members)), len(order)
            )
            for position, at in enumerate(order):
                pad[at] = position
            groups = []
            for op, run in itertools.groupby(alt.op for alt in stacked):
                start = groups[-1][1].stop if groups else 0
                groups.append((op, slice(start, start + len(list(run)))))
            levels.append(_Level(
                rows=slice(lo, hi),
                seed=(np.concatenate([row.seed for row in members])[:, None]
                      if members[0].seed is not None else None),
                seed_outer=np.asarray([row.outer for row in members]),
                seed_inner=np.asarray([row.inner for row in members]),
                card_steps=_product_steps([row.sels for row in members]),
                groups=groups,
                out=np.asarray([lo + member for member, _ in order]),
                outer=np.asarray([alt.outer for alt in stacked]),
                inner=np.asarray([alt.inner for alt in stacked]),
                base=np.asarray([alt.base for alt in stacked])[:, None],
                fetch_steps=_product_steps(
                    [alt.fetch_sels for alt in stacked
                     if alt.op == INDEX_SCAN]
                ),
                pad=pad,
            ))
        return levels

    # ------------------------------------------------------------------
    # The vectorized sweep
    # ------------------------------------------------------------------

    def optimize(self, env, num_points=None):
        """Optimize under a selectivity environment.

        One compiled program (:meth:`_compile`) feeds two layouts of the
        same dynamic program, chosen on ``num_points`` alone: batches up
        to :data:`STACKED_MAX_POINTS` are evaluated level-stacked (one
        set of cost-model calls per level and operator, a few dozen
        numpy calls whatever the query), larger sweeps one alternative
        at a time (no gathers, no multi-megabyte temporaries).  Both
        perform the same float operations per point in the same order
        and break ties towards the first alternative, so their costs,
        choices and plans are bit-identical.

        Args:
            env: mapping epp dimension -> selectivity, each a scalar or an
                ndarray of shape ``(N,)``.
            num_points: N; inferred from array-valued entries if omitted
                (defaults to 1 when all entries are scalars).

        Returns:
            :class:`OptimizationResult`.

        Raises:
            OptimizerError: array-valued entries disagree in length, or
                with an explicit ``num_points``.
        """
        values = {dim: np.asarray(v, dtype=float) for dim, v in env.items()}
        shapes = {v.shape for v in values.values() if v.ndim}
        if num_points is not None:
            shapes.add((int(num_points),))
        if len(shapes) > 1 or any(len(shape) != 1 for shape in shapes):
            raise OptimizerError(
                "environment entries must be scalars or (N,) arrays of one "
                f"length; got shapes {sorted(shapes)}"
                + ("" if num_points is None
                   else f" with num_points={num_points}")
            )
        (num_points,) = shapes.pop() if shapes else (1,)
        sel = [None] * len(self._sel_consts)
        for position, pred in self._sel_epps:
            sel[position] = predicate_selectivity(pred, self.query, values)
        if num_points <= STACKED_MAX_POINTS:
            return self._evaluate_stacked(sel, num_points)
        return self._evaluate_bulk(sel, num_points)

    def optimize_at(self, selectivities):
        """Single-point convenience: plan for one epp selectivity vector.

        Returns ``(plan, cost)``.
        """
        env = {dim: float(s) for dim, s in enumerate(selectivities)}
        result = self.optimize(env, num_points=1)
        return result.plan_at(0), float(result.optimal_cost[0])

    def _evaluate_stacked(self, epp_sel, n):
        """The DP over ``(rows, n)`` matrices, one level at a time."""
        model = self.cost_model
        sel = np.empty((len(epp_sel), n))
        sel[:] = self._sel_consts
        for position, _ in self._sel_epps:
            sel[position] = epp_sel[position]
        num_rows = len(self._rows)
        cards = np.empty((num_rows, n))
        best = np.empty((num_rows, n))
        choice = np.empty((num_rows, n), dtype=np.int16)
        for level in self._levels:
            if level.seed is None:
                card = cards[level.seed_outer] * cards[level.seed_inner]
            else:
                card = np.repeat(level.seed, n, axis=1)
            cards[level.rows] = _product(card, level.card_steps, sel)
            stack = np.empty((len(level.out) + 1, n))
            stack[-1] = np.inf
            for op, group in level.groups:
                base = level.base[group]
                fetch = None
                if op == INDEX_SCAN:
                    fetch = _product(
                        np.repeat(base, n, axis=1), level.fetch_steps, sel
                    )
                stack[group] = _alternative_costs(
                    model, op, base, cards[level.out[group]], fetch,
                    best, cards, level.outer[group], level.inner[group],
                )
            padded = stack[level.pad]
            # argmin returns the first minimum: the strict-< tie-break.
            choice[level.rows] = padded.argmin(axis=1)
            best[level.rows] = padded.min(axis=1)
        return OptimizationResult(self, best[-1], choice, n)

    def _evaluate_bulk(self, epp_sel, n):
        """The DP one alternative at a time over ``(n,)`` rows.

        Rows that depend on no array-valued selectivity stay ``(1,)``
        and broadcast where a varying row meets them.
        """
        model = self.cost_model
        sel = [
            const if given is None else given.reshape(-1)
            for const, given in zip(self._sel_consts, epp_sel)
        ]
        cards = []
        best = []
        choice = []
        for seed, outer, inner, sels, alts in self._rows:
            card = seed if seed is not None else cards[outer] * cards[inner]
            for position in sels:
                card = card * sel[position]
            cards.append(card)
            best_cost = None
            best_idx = np.zeros(1, dtype=np.int16)
            for idx, (op, outer, inner, base, fetch_sels) in enumerate(alts):
                fetch = None
                if op == INDEX_SCAN:
                    fetch = base
                    for position in fetch_sels:
                        fetch = fetch * sel[position]
                cost = _alternative_costs(
                    model, op, base, card, fetch, best, cards, outer, inner
                )
                if best_cost is None:
                    best_cost = cost
                    continue
                better = cost < best_cost
                if better.any():
                    best_cost = np.where(better, cost, best_cost)
                    best_idx = np.where(better, np.int16(idx), best_idx)
            best.append(best_cost)
            choice.append(np.broadcast_to(best_idx, (n,)))
        optimal = np.array(np.broadcast_to(best[-1], (n,)))
        return OptimizationResult(self, optimal, choice, n)


class _Alt(NamedTuple):
    """One compiled alternative of a program row."""

    op: str  #: scan method or join operator
    outer: int  #: row of the outer input (-1 for a scan)
    inner: int  #: row of the inner input (-1 for a scan)
    base: float  #: cardinality of the scanned / index-probed relation
    fetch_sels: tuple  #: index scan: positions of the indexed filters


class _Row(NamedTuple):
    """One connected mask of the compiled program.

    Its cardinality is ``seed`` (a base relation) or ``cards[outer] *
    cards[inner]``, times the selectivities at ``sels`` in order.
    """

    seed: object  #: ``(1,)`` base cardinality, None for a join
    outer: int
    inner: int
    sels: tuple
    alts: tuple  #: of :class:`_Alt`, in ``Optimizer.alternatives`` order


class _Level(NamedTuple):
    """One popcount level of the compiled program, in stack order.

    ``seed`` (base cardinalities, scan level) or ``seed_outer`` /
    ``seed_inner`` start the cardinalities of the level's ``rows`` and
    ``card_steps`` finish them; ``out``/``outer``/``inner``/``base``
    hold one entry per alternative, grouped by operator as ``groups``
    slices them; ``pad`` maps every mask's alternative list onto the
    stack.
    """

    rows: slice
    seed: object
    seed_outer: np.ndarray
    seed_inner: np.ndarray
    card_steps: list
    groups: list
    out: np.ndarray
    outer: np.ndarray
    inner: np.ndarray
    base: np.ndarray
    fetch_steps: list
    pad: np.ndarray


def _product_steps(sel_lists):
    """Per-position ``(rows, selectivity indices)`` of ragged lists."""
    steps = []
    for j in range(max((len(sels) for sels in sel_lists), default=0)):
        sub = [k for k, sels in enumerate(sel_lists) if len(sels) > j]
        steps.append((
            np.asarray(sub), np.asarray([sel_lists[k][j] for k in sub]),
        ))
    return steps


def _product(seed, steps, sel):
    """Multiply stacked rows by their selectivities, in predicate order."""
    for sub, positions in steps:
        seed[sub] = seed[sub] * sel[positions]
    return seed


def _alternative_costs(model, op, base, out, fetch, best, cards, outer, inner):
    """Cost of alternatives of one operator, in either layout.

    ``out`` is the output cardinality, ``base`` the scanned (or
    index-probed) relation's cardinality, ``fetch`` an index scan's
    fetch volume; ``outer``/``inner`` index the inputs' rows of ``best``
    and ``cards`` — one row each over ``(N,)`` arrays in the bulk
    layout, ``k`` rows each over ``(k, N)`` stacks in the stacked one.
    Every operand broadcasts, so this is the one statement of how an
    alternative's cost is assembled from the cost-model formulas.
    """
    if op == SEQ_SCAN:
        return model.scan_seq(base, out)
    if op == INDEX_SCAN:
        return model.scan_index(base, np.maximum(fetch, out))
    outer_card = cards[outer]
    inner_card = cards[inner]
    if op == INDEX_NL_JOIN:
        # Index matches precede residual filters on the inner side.
        ratio = base / np.maximum(inner_card, 1e-12)
        match_card = out * np.minimum(ratio, base)
        local = model.join_inl(outer_card, base, match_card)
        return best[outer] + local  # the inner side is never scanned
    if op == HASH_JOIN:
        local = model.join_hash(outer_card, inner_card, out)
    elif op == MERGE_JOIN:
        local = model.join_merge(outer_card, inner_card, out)
    elif op == NL_JOIN:
        local = model.join_nl(outer_card, inner_card, out)
    else:
        raise OptimizerError(f"unknown operator {op!r}")
    return best[outer] + best[inner] + local
