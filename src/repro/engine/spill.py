"""Plan-to-iterator translation, spill surgery, and budgeted runs.

This module is the engine's front door: it turns an optimizer
:class:`~repro.optimizer.plans.PlanNode` tree into the iterator pipeline
of :mod:`repro.engine.iterators`, optionally *truncated at a spill node*
(paper Section 3.1.2: keep only the subtree rooted at the epp's node,
discard its output), runs it under a cost budget, and returns the
monitored outcome.

Two interchangeable engines sit behind :func:`execute_plan`: the
row-at-a-time Volcano interpreter (ground truth) and the columnar
vector engine of :mod:`repro.engine.vector`, which is charge-equivalent
to it — identical :class:`~repro.engine.executor.ExecutionOutcome` on
completed and budget-killed runs alike.  Vector is the default;
whenever it declines an execution it falls back to Volcano, so callers
never see a behavioral difference.
"""

from __future__ import annotations

from repro.engine.executor import CostMeter, ExecutionOutcome, OperatorStats
from repro.engine.iterators import (
    HashJoin,
    IndexNLJoin,
    IndexScan,
    MergeJoin,
    NestedLoopJoin,
    SeqScan,
)
from repro.errors import BudgetExhausted, ExecutionError
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span as obs_span
from repro.optimizer import plans as planlib

#: Engine names accepted by :func:`execute_plan`.
ENGINES = ("vector", "volcano")


def _build_operator(node, query, data_provider, model, meter, stats_sink):
    stats = OperatorStats(node_key=node.key)
    stats_sink[node.key] = stats
    if isinstance(node, planlib.ScanNode):
        table_data = data_provider.table(node.table)
        cls = IndexScan if node.method == planlib.INDEX_SCAN else SeqScan
        return cls(node.table, table_data, node.applied_preds, model, stats, meter)

    outer = _build_operator(node.outer, query, data_provider, model, meter,
                            stats_sink)
    key_pairs = node.key_pairs()
    if node.op == planlib.INDEX_NL_JOIN:
        if len(node.applied_preds) != 1:
            raise ExecutionError(
                "index nested-loop join supports a single join predicate"
            )
        inner_table = next(iter(node.inner.tables))
        pred = node.applied_preds[0]
        return IndexNLJoin(
            outer=outer,
            inner_table=inner_table,
            table_data=data_provider.table(inner_table),
            join_columns=(key_pairs[0], pred.column_for(inner_table)),
            inner_filters=query.filters_on(inner_table),
            model=model,
            stats=stats,
            meter=meter,
        )
    inner = _build_operator(node.inner, query, data_provider, model, meter,
                            stats_sink)
    if node.op == planlib.HASH_JOIN:
        return HashJoin(outer, inner, key_pairs, model, stats, meter)
    if node.op == planlib.MERGE_JOIN:
        return MergeJoin(outer, inner, key_pairs, model, stats, meter)
    if node.op == planlib.NL_JOIN:
        return NestedLoopJoin(outer, inner, key_pairs, model, stats, meter)
    raise ExecutionError(f"unknown join operator {node.op!r}")


def execute_plan(plan, query, data_provider, cost_model, budget=None,
                 spill_epp=None, engine="vector"):
    """Run a plan over generated data, optionally spilled and budgeted.

    Args:
        plan: the physical plan tree (from the optimizer).
        query: its :class:`~repro.query.query.SPJQuery`.
        data_provider: object with ``table(name) -> TableData`` (e.g. a
            :class:`~repro.catalog.datagen.DataGenerator`).
        cost_model: the shared :class:`~repro.optimizer.cost_model.CostModel`.
        budget: optional cost budget; exceeding it kills the run.
        spill_epp: epp *name* to spill on — the execution then runs only
            the subtree rooted at that epp's node and discards output.
        engine: ``"vector"`` / ``"volcano"`` — both produce identical
            outcomes.

    Returns:
        :class:`~repro.engine.executor.ExecutionOutcome`; when spilled
        and completed, ``outcome.selectivity_of(root.key)`` is the epp's
        exact observed selectivity.
    """
    root = plan
    if spill_epp is not None:
        root = planlib.find_epp_node(plan, spill_epp)
        if root is None:
            raise ExecutionError(
                f"plan {plan.key} does not apply epp {spill_epp!r}"
            )
    if engine not in ENGINES:
        raise ExecutionError(
            f"unknown engine {engine!r} (expected one of {ENGINES})"
        )
    REGISTRY.incr("engine_executions", labels={"engine": engine})
    if spill_epp is not None:
        REGISTRY.incr("engine_spill_executions")
    with obs_span("engine.execute", engine=engine, plan=plan.key,
                  spill_epp=spill_epp or "",
                  budgeted=budget is not None) as exec_span:
        if engine == "vector":
            from repro.engine import vector

            try:
                outcome = vector.execute_vectorized(
                    root, query, data_provider, cost_model, budget=budget,
                    spilled_epp=spill_epp or "",
                )
                exec_span.set_attr("completed", outcome.completed)
                return outcome
            except vector.VectorFallback:
                REGISTRY.incr("vector_fallback")
                exec_span.set_attr("vector_fallback", True)
        meter = CostMeter(budget)
        stats_sink = {}
        operator = _build_operator(root, query, data_provider, cost_model,
                                   meter, stats_sink)
        rows_out = 0
        completed = True
        try:
            for _ in operator.rows():
                rows_out += 1  # spill mode: produced, counted, discarded
        except BudgetExhausted:
            completed = False
        exec_span.set_attr("completed", completed)
        return ExecutionOutcome(
            completed=completed,
            rows_out=rows_out,
            cost_spent=meter.spent,
            budget=budget,
            stats=stats_sink,
            spilled_epp=spill_epp or "",
        )


def spill_root_key(plan, epp_name):
    """Canonical key of the node a spill on ``epp_name`` would drain."""
    node = planlib.find_epp_node(plan, epp_name)
    if node is None:
        raise ExecutionError(f"plan {plan.key} does not apply {epp_name!r}")
    return node.key
