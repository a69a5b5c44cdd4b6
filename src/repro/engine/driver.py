"""Engine-driven discovery: the wall-clock experiment machinery.

Paper Section 6.3 measures actual response times: the native optimizer's
plan runs 14.3x slower than the oracle's on 4D Q91, SpillBound cuts
that to 5.6x and AlignedBound to 3.8x.  This module reproduces the
mechanics on generated data: the contour/plan machinery still comes from
the cost model (as it does in the real system, where contours are
pre-computed through the optimizer), but every budgeted/spilled
execution actually runs on the iterator engine, is killed on budget
expiry, and learns selectivities from the run-time monitors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from weakref import WeakKeyDictionary

import numpy as np

from repro.core.discovery import NORMAL, SPILL, ExecutionRecord, discover
from repro.engine.spill import execute_plan, spill_root_key
from repro.engine.vector import _apply_filters
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span as obs_span

#: Memo for measured selectivities: data provider -> {(query name, pred
#: name, the filters on both sides): selectivity}.  Keyed weakly on the
#: provider so dropping a DataGenerator frees its entries; repeated
#: wall-clock runs over the same instance then recover qa without
#: re-scanning the joins.
_MEASURED_CACHE = WeakKeyDictionary()


def measured_join_selectivity(data_provider, query, pred):
    """The *true* normalized selectivity of a join over generated data.

    ``|L_f JOIN R_f| / (|L_f| * |R_f|)`` with the query's filters applied
    to both sides — the quantity the ESS axes range over.  Results are
    memoized per (data provider, query, predicate, filters).
    """
    try:
        memo = _MEASURED_CACHE.setdefault(data_provider, {})
    except TypeError:  # provider not weak-referenceable: skip the memo
        memo = {}
    memo_key = (query.name, pred.name) + tuple(
        f.describe() for table in pred.tables
        for f in query.filters_on(table))
    if memo_key in memo:
        return memo[memo_key]
    keys, freqs = [], []
    for table in pred.tables:
        data = data_provider.table(table)
        kept = _apply_filters(data, query.filters_on(table))
        uniques, freq = np.unique(data.column(pred.column_for(table))[kept],
                                  return_counts=True)
        keys.append(uniques)
        freqs.append(freq)
    _, left, right = np.intersect1d(*keys, assume_unique=True,
                                    return_indices=True)
    # Python ints: the quotient is the correctly rounded true ratio.
    matches = int((freqs[0][left] * freqs[1][right]).sum())
    pairs = int(freqs[0].sum()) * int(freqs[1].sum())
    selectivity = matches / pairs if pairs else 0.0
    memo[memo_key] = selectivity
    return selectivity


def measured_location(data_provider, query):
    """The true epp selectivity vector of a generated instance."""
    return tuple(
        measured_join_selectivity(data_provider, query, pred)
        for pred in query.epps
    )


@dataclass
class EngineReport:
    """Outcome of an engine-driven discovery run.

    ``steps`` holds one :class:`~repro.core.discovery.ExecutionRecord`
    per engine execution — the record the simulated walk writes, so
    ``ConformanceMonitor.check_records`` certifies it.  ``charged`` is
    the engine's actual metered spend (killed executions cost exactly
    their budget) and ``total_cost`` its sum; a completed spill's
    ``learned_selectivity`` is the selectivity the engine observed, NaN
    on every other execution.
    """

    steps: list = field(default_factory=list)
    total_cost: float = 0.0
    rows_out: int = 0
    completed_plan_key: str = ""

    @property
    def num_steps(self):
        return len(self.steps)


class EngineExecutor:
    """The walk's executor on the real engine: one budgeted execution is
    one :func:`~repro.engine.spill.execute_plan` run, killed at budget
    expiry, each logged as an ``ExecutionRecord`` in ``report.steps``.

    (Interface: :class:`~repro.core.discovery.SimulatedExecutor`.)
    """

    def __init__(self, ess, data_provider, engine="vector"):
        self.ess = ess
        self.data_provider = data_provider
        self.engine = engine
        self.report = EngineReport()

    def _execute(self, contour_index, plan_id, budget, spill_dim=None,
                 fresh=True, penalty=1.0):
        """Run one plan (``budget=None``: to the end; ``spill_dim``: in
        spill mode on that epp), charge and log it; a completed
        regular-mode run is the query's result.

        Returns the engine outcome and the selectivity a completed spill
        observed for its epp (NaN otherwise).
        """
        plan = self.ess.plans[plan_id]
        spill_epp = (None if spill_dim is None
                     else self.ess.query.epps[spill_dim].name)
        outcome = execute_plan(
            plan, self.ess.query, self.data_provider, self.ess.cost_model,
            budget=budget, spill_epp=spill_epp, engine=self.engine,
        )
        learned_sel = float("nan")
        if outcome.completed and spill_epp is None:
            self.report.rows_out = outcome.rows_out
            self.report.completed_plan_key = plan.key
        elif outcome.completed:
            REGISTRY.incr("engine_learned_selectivities",
                          labels={"epp": spill_epp})
            learned_sel = outcome.selectivity_of(
                spill_root_key(plan, spill_epp))
        self.report.total_cost += outcome.cost_spent
        self.report.steps.append(ExecutionRecord(
            contour=contour_index,
            plan_id=plan_id,
            plan_key=plan.key,
            mode=NORMAL if spill_dim is None else SPILL,
            spill_dim=spill_dim,
            budget=float("inf") if budget is None else budget,
            charged=outcome.cost_spent,
            completed=outcome.completed,
            learned_selectivity=learned_sel,
            fresh=fresh,
            penalty=penalty,
        ))
        return outcome, learned_sel

    def spill(self, contour_index, step, fresh):
        dim = step.exec_dim
        outcome, learned_sel = self._execute(
            contour_index, step.plan_id, step.budget, dim, fresh,
            step.penalty,
        )
        if not outcome.completed:
            return outcome.cost_spent, None
        # Snap the observed selectivity to the grid, in log space.
        values = self.ess.grid.values[dim]
        idx = int(np.argmin(np.abs(
            np.log(values) - np.log(max(learned_sel, values[0])))))
        return outcome.cost_spent, idx

    def trial(self, contour_index, budget, plan_id):
        outcome, _ = self._execute(contour_index, plan_id, budget)
        return outcome.cost_spent, outcome.completed

    def exhausted(self, contour_index, learned):
        """Safety net (possible only under cost-model/engine divergence):
        run the optimal plan at the learnt location without a budget."""
        grid = self.ess.grid
        flat = grid.flat_index(tuple(
            learned.get(d, grid.terminus[d]) for d in range(grid.num_dims)))
        plan_id = int(self.ess.plan_ids[flat])
        outcome, _ = self._execute(contour_index, plan_id, None)
        return outcome.cost_spent, plan_id


class EngineDiscoveryDriver:
    """Run a contour-discovery algorithm against the real engine.

    Args:
        simulator: a :class:`~repro.core.spill_bound.SpillBound` (or
            :class:`~repro.core.aligned_bound.AlignedBound`) instance —
            supplies contour structure and per-state plan choices
            (``contour_steps`` / ``tail_trials``).
        data_provider: ``table(name) -> TableData``.
        engine: execution engine selector passed to every
            :func:`~repro.engine.spill.execute_plan` call.
    """

    def __init__(self, simulator, data_provider, engine="vector"):
        self.simulator = simulator
        self.data_provider = data_provider
        self.engine = engine
        self.ess = simulator.ess
        self.query = simulator.ess.query

    def run(self):
        """Drive discovery to completion on the engine: the scalar walk
        of :mod:`repro.core.discovery` from contour 1, every execution's
        outcome coming from an :class:`EngineExecutor`."""
        executor = EngineExecutor(self.ess, self.data_provider, self.engine)
        report = executor.report
        with obs_span("engine.discovery", query=self.query.name,
                      engine=self.engine) as run_span:
            discover(self.simulator, executor, 1)
            run_span.set_attr("steps", report.num_steps)
            run_span.set_attr("total_cost", report.total_cost)
        REGISTRY.incr("engine_discovery_runs")
        return report


def oracle_run(ess, data_provider, qa_selectivities, engine="vector"):
    """Execute the oracle's plan (optimal at the true location) fully."""
    coords = ess.grid.snap(qa_selectivities)
    flat = ess.grid.flat_index(coords)
    plan = ess.plans[int(ess.plan_ids[flat])]
    return execute_plan(plan, ess.query, data_provider, ess.cost_model,
                        engine=engine)


def native_run(ess, data_provider, qe=None, engine="vector"):
    """Execute the native optimizer's plan (chosen at estimate ``qe``,
    default the ESS origin) fully, whatever the data holds."""
    grid = ess.grid
    flat = grid.flat_index(qe if qe is not None else grid.origin)
    plan = ess.plans[int(ess.plan_ids[flat])]
    return execute_plan(plan, ess.query, data_provider, ess.cost_model,
                        engine=engine)
