"""Physical plan trees: identity, pipelines, re-costing, spill surgery.

A plan is an immutable tree of :class:`ScanNode` and :class:`JoinNode`
objects.  The discovery algorithms need four things from a plan beyond
what a conventional engine provides:

* **Canonical identity** (:attr:`PlanNode.key`) — POSP membership is
  decided by structural equality of plans across ESS locations.
* **Parameterized re-costing** (:func:`plan_cost`) — ``Cost(P, q)`` for a
  *fixed* plan at *any* ESS location, vectorized over the whole grid.
* **Pipeline decomposition and epp total order**
  (:func:`epp_total_order`) — the paper's spill-node identification
  (Section 3.1.3) orders epps by pipeline execution order, then by the
  upstream/downstream relation within a pipeline.
* **Spill subtree costing** (:func:`spill_subtree_cost`) — the cost of
  executing only the subtree rooted at an epp's node, which is what a
  spill-mode execution pays.
"""

from __future__ import annotations

import numpy as np

from repro.errors import OptimizerError, QueryError

#: Physical join operator tags.
HASH_JOIN = "HJ"
MERGE_JOIN = "MJ"
NL_JOIN = "NL"
INDEX_NL_JOIN = "INL"

SEQ_SCAN = "SEQ"
INDEX_SCAN = "IDX"


class PlanNode:
    """Base class for plan-tree nodes.

    Attributes:
        tables: frozenset of base tables under this node.
        applied_preds: predicates applied *at* this node (filters for
            scans, join predicates for joins).
        key: canonical structural identity string.
    """

    __slots__ = ("tables", "applied_preds", "key")

    @property
    def children(self):
        return ()

    def iter_nodes(self):
        """Yield all nodes in the subtree (pre-order)."""
        yield self
        for child in self.children:
            yield from child.iter_nodes()

    def __repr__(self):
        return self.key


class ScanNode(PlanNode):
    """A base-relation access: sequential or index scan."""

    __slots__ = ("table", "method")

    def __init__(self, table, method, filters=()):
        self.table = table
        self.method = method
        self.tables = frozenset((table,))
        self.applied_preds = tuple(filters)
        self.key = f"{method}({table})"


class JoinNode(PlanNode):
    """A binary join.

    ``outer`` is the streaming/probe/driving side, ``inner`` the
    blocking/build/indexed side — which side is which matters to both the
    cost model and the pipeline decomposition.
    """

    __slots__ = ("op", "outer", "inner")

    def __init__(self, op, outer, inner, preds):
        if not preds:
            raise OptimizerError("join node requires at least one predicate")
        self.op = op
        self.outer = outer
        self.inner = inner
        self.applied_preds = tuple(preds)
        self.tables = outer.tables | inner.tables
        pred_names = ",".join(sorted(p.name for p in preds))
        self.key = f"{op}[{pred_names}]({outer.key},{inner.key})"

    @property
    def children(self):
        return (self.outer, self.inner)

    def key_pairs(self):
        """Per-side ``(table, column)`` key lists of the applied
        predicates: ``(outer_keys, inner_keys)``, aligned by predicate."""
        outer_keys, inner_keys = [], []
        for pred in self.applied_preds:
            left, right = pred.tables
            if left not in self.outer.tables:
                left, right = right, left
            outer_keys.append((left, pred.column_for(left)))
            inner_keys.append((right, pred.column_for(right)))
        return outer_keys, inner_keys


# ----------------------------------------------------------------------
# Selectivity environments
# ----------------------------------------------------------------------

def predicate_selectivity(pred, query, env):
    """Selectivity of a predicate under an ESS environment.

    ``env`` maps epp dimension -> selectivity (scalar or array); non-epp
    predicates use their true (assumed correctly estimated) selectivity.
    """
    if pred.error_prone:
        dim = query.epp_dimension(pred.name)
        try:
            return env[dim]
        except KeyError:
            raise QueryError(
                f"environment missing epp dimension {dim} ({pred.name})"
            ) from None
    return pred.selectivity


def base_cardinality(table, query, env):
    """Cardinality of a base table after its filters, under ``env``."""
    card = float(query.schema.table(table).cardinality)
    for f in query.filters_on(table):
        card = card * predicate_selectivity(f, query, env)
    return card


def node_output_cardinality(node, query, env, _cache=None):
    """Output cardinality of a plan node under ``env``.

    With the selectivity-independence assumption, the cardinality of a
    join over table set S is the product of filtered base cardinalities
    and of all join selectivities applied within S — independent of the
    join order, which is why a fixed plan can be re-costed anywhere.
    """
    if isinstance(node, ScanNode):
        return base_cardinality(node.table, query, env)
    card = node_output_cardinality(node.outer, query, env) * node_output_cardinality(
        node.inner, query, env
    )
    for pred in node.applied_preds:
        card = card * predicate_selectivity(pred, query, env)
    return card


# ----------------------------------------------------------------------
# Re-costing
# ----------------------------------------------------------------------

def _node_cost(node, query, cost_model, env, out_cards, inl_inner):
    """Cost of one node given precomputed output cardinalities.

    ``inl_inner`` is the set of node ids that are the inner (indexed)
    side of an index-nested-loop join: those relations are accessed
    through their index, never scanned, so they contribute no cost of
    their own — the access cost lives in the INL node.
    """
    if id(node) in inl_inner:
        return 0.0
    out = out_cards[id(node)]
    if isinstance(node, ScanNode):
        base = float(query.schema.table(node.table).cardinality)
        if node.method == INDEX_SCAN:
            fetch = base
            for f in node.applied_preds:
                if query.schema.table(node.table).column(f.column).indexed:
                    fetch = fetch * predicate_selectivity(f, query, env)
            return cost_model.scan_index(base, np.maximum(fetch, out))
        return cost_model.scan_seq(base, out)
    outer = out_cards[id(node.outer)]
    inner = out_cards[id(node.inner)]
    if node.op == HASH_JOIN:
        return cost_model.join_hash(outer, inner, out)
    if node.op == MERGE_JOIN:
        return cost_model.join_merge(outer, inner, out)
    if node.op == NL_JOIN:
        return cost_model.join_nl(outer, inner, out)
    if node.op == INDEX_NL_JOIN:
        inner_base = float(query.schema.table(next(iter(node.inner.tables))).cardinality)
        # Index matches precede any residual filter on the inner side.
        ratio = inner_base / np.maximum(inner, 1e-12)
        match_card = out * np.minimum(ratio, inner_base)
        return cost_model.join_inl(outer, inner_base, match_card)
    raise OptimizerError(f"unknown join operator {node.op!r}")


def _output_cardinalities(plan, query, env):
    """Map ``id(node) -> output cardinality`` for every node (post-order)."""
    cards = {}

    def walk(node):
        if isinstance(node, ScanNode):
            card = base_cardinality(node.table, query, env)
        else:
            card = walk(node.outer) * walk(node.inner)
            for pred in node.applied_preds:
                card = card * predicate_selectivity(pred, query, env)
        cards[id(node)] = card
        return card

    walk(plan)
    return cards


def plan_node_costs(plan, query, cost_model, env):
    """Per-node costs for a plan under ``env`` (map ``id(node) -> cost``)."""
    out_cards = _output_cardinalities(plan, query, env)
    inl_inner = {
        id(node.inner)
        for node in plan.iter_nodes()
        if isinstance(node, JoinNode) and node.op == INDEX_NL_JOIN
    }
    return {
        id(node): _node_cost(node, query, cost_model, env, out_cards, inl_inner)
        for node in plan.iter_nodes()
    }


def plan_cost(plan, query, cost_model, env):
    """Total ``Cost(P, q)``: sum of all node costs (scalar or array)."""
    costs = plan_node_costs(plan, query, cost_model, env)
    total = 0.0
    for value in costs.values():
        total = total + value
    return total


# ----------------------------------------------------------------------
# Pipelines and the epp total order (paper Section 3.1)
# ----------------------------------------------------------------------

def _blocking_children(node):
    """Children whose output is fully materialized before the node runs."""
    if isinstance(node, ScanNode):
        return ()
    if node.op == HASH_JOIN:
        return (node.inner,)  # the build side
    if node.op == MERGE_JOIN:
        return (node.outer, node.inner)  # both sorted first
    return ()  # NL / INL stream the outer, re-scan the inner


def execution_order(plan):
    """Nodes in completion order: a deterministic linearization that
    satisfies the paper's two spill-ordering rules.

    * *Inter-pipeline*: blocking children (hash builds, sort inputs)
      complete before the pipeline containing their parent.
    * *Intra-pipeline*: upstream nodes complete no later than their
      downstream consumers (post-order).
    """
    order = []

    def walk(node):
        blocking = _blocking_children(node)
        for child in blocking:
            walk(child)
        for child in node.children:
            if child not in blocking:
                walk(child)
        order.append(node)

    walk(plan)
    return order


def epp_total_order(plan, query):
    """Epp names in the spill-ordering total order for this plan.

    An epp's position is the completion rank of the node applying it;
    multiple epps at one node tie-break by ESS dimension.
    """
    ordered = []
    for node in execution_order(plan):
        node_epps = sorted(
            (p for p in node.applied_preds if p.error_prone),
            key=lambda p: query.epp_dimension(p.name),
        )
        ordered.extend(p.name for p in node_epps)
    return ordered


def spill_dimension(plan, query, remaining_dims):
    """The ESS dimension this plan spills on, given the unlearned dims.

    Per Section 3.1.3 the spill node is the *first* unlearned epp in the
    total order; returns ``None`` when the plan touches none of them.
    """
    remaining = set(remaining_dims)
    for name in epp_total_order(plan, query):
        dim = query.epp_dimension(name)
        if dim in remaining:
            return dim
    return None


def find_epp_node(plan, epp_name):
    """The node applying the named epp, or ``None``."""
    for node in plan.iter_nodes():
        if any(p.name == epp_name for p in node.applied_preds):
            return node
    return None


def spill_subtree_cost(plan, query, cost_model, env, epp_name):
    """Cost of a spill-mode execution of ``plan`` on ``epp_name``.

    Spill-mode execution runs only the subtree rooted at the epp's node
    and discards its output (Section 3.1.2); the budget therefore buys
    exactly the subtree's cost.
    """
    node = find_epp_node(plan, epp_name)
    if node is None:
        raise OptimizerError(f"plan {plan.key} does not apply epp {epp_name!r}")
    costs = plan_node_costs(node, query, cost_model, env)
    total = 0.0
    for value in costs.values():
        total = total + value
    return total


def pipelines(plan):
    """Decompose a plan into pipelines (lists of nodes), execution order.

    A pipeline is a maximal set of nodes connected by streaming edges;
    blocking edges (hash build, sort inputs) separate pipelines.  Returned
    in completion order, consistent with :func:`execution_order`.
    """
    # Union nodes along streaming edges.
    parent = {}

    def find(x):
        while parent[x] is not x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    nodes = list(plan.iter_nodes())
    for node in nodes:
        parent.setdefault(node, node)
    for node in nodes:
        blocking = set(_blocking_children(node))
        for child in node.children:
            if child not in blocking:
                ra, rb = find(node), find(child)
                if ra is not rb:
                    parent[ra] = rb

    groups = {}
    for node in execution_order(plan):
        groups.setdefault(find(node), []).append(node)
    return list(groups.values())
