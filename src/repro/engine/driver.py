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

from repro.core.spill_bound import SpillBound
from repro.engine.spill import execute_plan, spill_root_key
from repro.engine.vector import _apply_filters
from repro.errors import DiscoveryError
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
class EngineStep:
    """One engine execution within a discovery run."""

    contour: int
    plan_key: str
    mode: str
    spill_epp: str
    budget: float
    cost_spent: float
    completed: bool
    learned_selectivity: float = float("nan")


@dataclass
class EngineReport:
    """Outcome of an engine-driven discovery run.

    ``total_cost`` sums the engine's actual metered spend (killed
    executions cost exactly their budget).
    """

    steps: list = field(default_factory=list)
    total_cost: float = 0.0
    rows_out: int = 0
    completed_plan_key: str = ""

    @property
    def num_steps(self):
        return len(self.steps)


class EngineDiscoveryDriver:
    """Run a contour-discovery algorithm against the real engine.

    Args:
        simulator: a :class:`~repro.core.spill_bound.SpillBound` (or
            :class:`~repro.core.aligned_bound.AlignedBound`) instance —
            supplies contour structure and per-state plan choices.
        data_provider: ``table(name) -> TableData``.
        engine: execution engine selector passed to every
            :func:`~repro.engine.spill.execute_plan` call.
    """

    def __init__(self, simulator, data_provider, engine="auto"):
        self.simulator = simulator
        self.data_provider = data_provider
        self.engine = engine
        self.ess = simulator.ess
        self.query = simulator.ess.query

    def _steps_for_state(self, contour_index, learned):
        sim = self.simulator
        if hasattr(sim, "_plan_partition"):
            return sim._plan_partition(contour_index, learned)
        steps = sim._plan_steps(contour_index, learned)
        return [steps[dim] for dim in sorted(steps)]

    def _spill_once(self, step, contour_index, learned, report):
        """One budgeted spill-mode engine execution; updates ``learned``."""
        dim = getattr(step, "leader", None)
        if dim is None:
            dim = step.dim
        epp_name = self.query.epps[dim].name
        plan = self.ess.plans[step.plan_id]
        outcome = execute_plan(
            plan, self.query, self.data_provider, self.ess.cost_model,
            budget=step.budget, spill_epp=epp_name, engine=self.engine,
        )
        learned_sel = float("nan")
        if outcome.completed:
            REGISTRY.incr("engine_learned_selectivities",
                          labels={"epp": epp_name})
            learned_sel = outcome.selectivity_of(spill_root_key(plan, epp_name))
            grid = self.ess.grid
            logs = np.log(grid.values[dim])
            idx = int(np.argmin(np.abs(logs - np.log(max(learned_sel, grid.values[dim][0])))))
            learned[dim] = idx
        report.total_cost += outcome.cost_spent
        report.steps.append(EngineStep(
            contour=contour_index,
            plan_key=plan.key,
            mode="spill",
            spill_epp=epp_name,
            budget=step.budget,
            cost_spent=outcome.cost_spent,
            completed=outcome.completed,
            learned_selectivity=learned_sel,
        ))
        return outcome.completed

    def _run_1d_engine(self, free_dim, learned, start_contour, report):
        per_contour = self.simulator._line_plans(free_dim, learned)
        contours = self.simulator.contours
        for index in range(start_contour, contours.num_contours + 1):
            budget = contours.budget(index)
            for pid in per_contour[index - 1]:
                plan = self.ess.plans[pid]
                outcome = execute_plan(
                    plan, self.query, self.data_provider,
                    self.ess.cost_model, budget=budget, engine=self.engine,
                )
                report.total_cost += outcome.cost_spent
                report.steps.append(EngineStep(
                    contour=index,
                    plan_key=plan.key,
                    mode="normal",
                    spill_epp="",
                    budget=budget,
                    cost_spent=outcome.cost_spent,
                    completed=outcome.completed,
                ))
                if outcome.completed:
                    report.rows_out = outcome.rows_out
                    report.completed_plan_key = plan.key
                    return True
        return False

    def run(self):
        """Drive discovery to completion on the engine."""
        from repro.conformance.monitors import observe_engine_report

        with obs_span("engine.discovery", query=self.query.name,
                      engine=self.engine) as run_span:
            report = self._drive()
            run_span.set_attr("steps", report.num_steps)
            run_span.set_attr("total_cost", report.total_cost)
        REGISTRY.incr("engine_discovery_runs")
        observe_engine_report(report, self.simulator)
        return report

    def _drive(self):
        learned = {}
        report = EngineReport()
        num_dims = self.ess.grid.num_dims
        contour_index = 1
        max_rounds = 4 * self.simulator.contours.num_contours * num_dims + 16
        for _ in range(max_rounds):
            remaining = [d for d in range(num_dims) if d not in learned]
            if len(remaining) <= 1 and remaining:
                if self._run_1d_engine(remaining[0], learned, contour_index,
                                       report):
                    return report
                break  # fall through to the unbudgeted safety net
            if contour_index > self.simulator.contours.num_contours:
                break
            steps = self._steps_for_state(contour_index, learned)
            learnt = False
            for step in steps:
                if self._spill_once(step, contour_index, learned, report):
                    learnt = True
                    break
            if not learnt:
                contour_index += 1
        # Safety net (possible only under cost-model/engine divergence):
        # run the optimal plan at the learnt location without a budget.
        coords = tuple(learned.get(d, self.ess.grid.terminus[d])
                       for d in range(num_dims))
        flat = self.ess.grid.flat_index(coords)
        plan = self.ess.plans[int(self.ess.plan_ids[flat])]
        outcome = execute_plan(plan, self.query, self.data_provider,
                               self.ess.cost_model, engine=self.engine)
        report.total_cost += outcome.cost_spent
        report.rows_out = outcome.rows_out
        report.completed_plan_key = plan.key
        report.steps.append(EngineStep(
            contour=contour_index, plan_key=plan.key, mode="normal",
            spill_epp="", budget=float("inf"),
            cost_spent=outcome.cost_spent, completed=True,
        ))
        return report


def oracle_run(ess, data_provider, qa_selectivities, engine="auto"):
    """Execute the oracle's plan (optimal at the true location) fully."""
    coords = ess.grid.snap(qa_selectivities)
    flat = ess.grid.flat_index(coords)
    plan = ess.plans[int(ess.plan_ids[flat])]
    return execute_plan(plan, ess.query, data_provider, ess.cost_model,
                        engine=engine)


def native_run(ess, data_provider, qe=None, engine="auto"):
    """Execute the native optimizer's plan (chosen at estimate ``qe``,
    default the ESS origin) fully, whatever the data holds."""
    grid = ess.grid
    flat = grid.flat_index(qe if qe is not None else grid.origin)
    plan = ess.plans[int(ess.plan_ids[flat])]
    return execute_plan(plan, ess.query, data_provider, ess.cost_model,
                        engine=engine)
