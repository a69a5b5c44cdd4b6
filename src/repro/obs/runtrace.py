"""Run-level telemetry: execution records → spans, metrics, rows.

A traced discovery run (``algorithm.run(qa, trace=True)``) yields
:class:`~repro.core.discovery.ExecutionRecord` objects whose natural
axis is **charged cost**, not wall time — the paper's accounting charges
a killed execution its full budget and a completed one its actual cost.
This module derives the downstream views from those records:

* :func:`record_row` — one record as a JSON-safe dict (``None`` for an
  infinite budget and an unlearnt selectivity), the row the served
  reply carries;
* :func:`run_records` — :func:`record_row` dicts plus the cumulative
  *cost timeline* (``cost_start`` / ``cost_end``) and an ``outcome``
  classification (``completed`` / ``budget-kill`` / ``spill-learned``),
  the input to the budget-waterfall viewer;
* :func:`publish_run_metrics` — run semantics into the metrics
  registry: contours crossed, spill executions per epp, budget-kill
  charges, learned-bound updates;
* :func:`traced_run` — runs an algorithm under a ``discovery.run`` span
  and emits one ``discovery.execution`` child span per record (marker
  spans: zero wall duration, the cost timeline rides in the attrs).
"""

from __future__ import annotations

import math

from repro.core.discovery import SPILL
from repro.obs import trace
from repro.obs.metrics import REGISTRY

#: Outcome classes (also the waterfall colour legend, in order).
OUTCOME_COMPLETED = "completed"
OUTCOME_BUDGET_KILL = "budget-kill"
OUTCOME_SPILL_LEARNED = "spill-learned"

OUTCOMES = (OUTCOME_COMPLETED, OUTCOME_BUDGET_KILL, OUTCOME_SPILL_LEARNED)


def classify_outcome(mode, completed):
    """Paper semantics for one budgeted execution:

    * a completed normal-mode execution produced the query result;
    * a completed spill-mode execution learnt its epp's exact
      selectivity (the contour-crossing discovery step);
    * anything killed at budget expiry is a budget-kill, charged its
      full budget.
    """
    if not completed:
        return OUTCOME_BUDGET_KILL
    if mode == SPILL:
        return OUTCOME_SPILL_LEARNED
    return OUTCOME_COMPLETED


def _epp_label(query, spill_dim):
    if spill_dim is None:
        return ""
    if query is not None and spill_dim < len(query.epps):
        return query.epps[spill_dim].name
    return f"e{spill_dim + 1}"


def record_row(record):
    """One :class:`~repro.core.discovery.ExecutionRecord` as a JSON-safe
    dict: plain ints/floats/bools, ``None`` for no spill epp, for an
    unbudgeted (infinite) execution and for an unlearnt (NaN)
    selectivity — a bare ``Infinity`` or ``NaN`` is not JSON."""
    learned = record.learned_selectivity
    return {
        "contour": int(record.contour),
        "plan_key": record.plan_key,
        "mode": record.mode,
        "spill_dim": (None if record.spill_dim is None
                      else int(record.spill_dim)),
        "budget": (None if math.isinf(record.budget)
                   else float(record.budget)),
        "charged": float(record.charged),
        "completed": bool(record.completed),
        "learned_selectivity": (
            None if learned is None or math.isnan(learned)
            else float(learned)
        ),
        "fresh": bool(record.fresh),
        "penalty": float(record.penalty),
    }


def run_records(result, query=None):
    """Flatten a traced ``DiscoveryResult`` into waterfall rows.

    Requires ``result.executions`` (run with ``trace=True``).  Each row
    carries the cumulative cost timeline: ``cost_start`` is the total
    charge before the execution began, ``cost_end`` after its own
    charge was accounted, so ``rows[-1]["cost_end"]`` equals
    ``result.total_cost``.
    """
    rows = []
    cumulative = 0.0
    for index, record in enumerate(result.executions or ()):
        start = cumulative
        cumulative += record.charged
        rows.append({
            "index": index,
            **record_row(record),
            "plan_id": record.plan_id,
            "epp": _epp_label(query, record.spill_dim),
            "outcome": classify_outcome(record.mode, record.completed),
            "cost_start": start,
            "cost_end": cumulative,
        })
    return rows


def publish_run_metrics(result, rows, algorithm="", registry=REGISTRY):
    """Publish one discovery run's semantics into the registry."""
    labels = {"algorithm": algorithm} if algorithm else None
    registry.incr("discovery_runs", labels=labels)
    registry.incr("contours_crossed", result.contours_visited, labels=labels)
    registry.incr("discovery_executions", result.num_executions,
                  labels=labels)
    registry.incr("repeat_executions", result.num_repeat_executions,
                  labels=labels)
    for row in rows:
        if row["mode"] == SPILL and row["epp"]:
            registry.incr("spill_executions", labels={"epp": row["epp"]})
        if row["outcome"] == OUTCOME_BUDGET_KILL:
            registry.incr("budget_kills", labels=labels)
            registry.observe("budget_kill_charge", row["charged"])
        if row["learned_selectivity"] is not None:
            registry.incr("learned_bound_updates", labels=labels)
    registry.observe("run_suboptimality", result.suboptimality)
    registry.gauge("last_run_total_cost", result.total_cost)
    registry.gauge("last_run_optimal_cost", result.optimal_cost)


def traced_run(algorithm, qa, name="", registry=REGISTRY):
    """One discovery run under a ``discovery.run`` span.

    Returns ``(result, rows)`` where ``rows`` is the
    :func:`run_records` flattening.  Each execution becomes a
    ``discovery.execution`` marker span: wall duration is meaningless
    for replayed cost accounting, so the span's value is its attrs —
    the cost timeline, outcome, plan and contour.
    """
    query = getattr(getattr(algorithm, "ess", None), "query", None)
    query_name = getattr(query, "name", "")
    with trace.span("discovery.run", algorithm=name,
                    query=query_name) as run_span:
        result = algorithm.run(qa, trace=True)
        rows = run_records(result, query)
        run_span.set_attr("qa_coords", list(result.qa_coords))
        run_span.set_attr("total_cost", result.total_cost)
        run_span.set_attr("optimal_cost", result.optimal_cost)
        run_span.set_attr("suboptimality", result.suboptimality)
        run_span.set_attr("contours_visited", result.contours_visited)
        run_span.set_attr("num_executions", result.num_executions)
        for row in rows:
            with trace.span("discovery.execution", **row):
                pass
    publish_run_metrics(result, rows, algorithm=name, registry=registry)
    return result, rows
