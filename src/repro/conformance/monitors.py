"""Runtime invariant monitors for the MSO guarantees.

The paper's value proposition is *provable* robustness — PlanBouquet's
behavioural ``MSO <= 4(1+lambda)rho`` (Dutt & Haritsa, TODS 2016) and
SpillBound's structural ``MSO <= D^2 + 3D`` (Karthik et al., TKDE 2019).
Both bounds rest on mechanically checkable per-execution invariants:
cost-budget doubling between contours, half-space pruning (Lemma 3.1:
each spill execution either learns an epp exactly or proves
``qa.j > q_max^j.j``), anorexic-reduction lambda accounting, and
repeat-execution counting (Lemma 4.4).  This module turns each of those
into a runtime check.

A :class:`ConformanceMonitor` checks only what its caller hands it: a
sweep's sub-optimality array (:meth:`~ConformanceMonitor.check_sweep`),
a traced run (:meth:`~ConformanceMonitor.check_run`), or a list of
:class:`~repro.core.discovery.ExecutionRecord` from any executor
(:meth:`~ConformanceMonitor.check_records` — how engine-driven runs are
checked).  The sweep engines, the walk and the engine driver import
nothing from here; the conformance suite, the arena and the served
worker call the checks on the results they produce.  Worlds that
legitimately break a bound (e.g. the SI-violating
:class:`~repro.ess.dependence.CorrelatedSpillBound`) simply are not
handed to one.

Violations are *recorded*, not raised: a conformance sweep should
report every broken invariant it finds, not die on the first one.
Each record is a structured :class:`Violation`; when the monitor is
constructed with a ``jsonl_path`` every record is also appended to
that file as one JSON line (the ``repro check`` artifact).

Invariant names used in records:

* ``contour-ladder`` — contour budgets form a geometric ladder at the
  configured cost ratio, capped at ``C_max`` (paper Section 2.5);
* ``mso-bound`` — a run's (or sweep's) sub-optimality exceeds the
  algorithm's own guarantee, or beats the oracle (``< 1``);
* ``lambda-accounting`` — a PlanBouquet execution budget differs from
  the anorexically inflated contour cost, executes a plan outside the
  reduced bouquet, or a contour runs more plans than ``rho``;
* ``halfspace`` — a spill execution that neither learnt its epp nor
  proved ``qa.j`` beyond the learnable bound, or a spill on an epp
  already learnt exactly;
* ``exact-learning`` — a completed spill execution whose learnt
  selectivity is not bit-exactly the grid selectivity at ``qa``;
* ``learned-monotonic`` — an epp's exact learning fell below a lower
  bound established by an earlier failed spill;
* ``budget-ladder`` — an execution budget inconsistent with the
  contour cost (times the replacement penalty for AlignedBound);
* ``charge-accounting`` — charges that disagree with the paper's
  accounting (killed runs charged their budget, completed runs their
  actual cost) or that do not sum to the reported total;
* ``repeat-bound`` — more than ``D(D-1)/2`` repeat executions
  (Lemma 4.4);
* ``sequence`` — out-of-order contours, a run ending on a killed
  execution, or other than exactly one completed normal-mode execution;
* ``bit-identity`` — two sweep engines disagree on the sub-optimality
  array (they must be bit-identical, ``np.array_equal``);
* ``ladder-start`` — a prior-scheduled run whose first execution sits
  above the contour band holding ``qa`` (skipping a rung that was not
  a guaranteed kill), or below the schedule's own starting contour;
* ``prior-inert`` — a run/sweep under the uniform prior that is not
  bit-identical (``np.array_equal``) to the plain no-prior path.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

#: Relative slack for the monitors' floating-point comparisons.  Wider
#: than :data:`repro.core.discovery.BUDGET_EPS` because totals are
#: re-summed here in a different association order than the run built
#: them in.
RTOL = 1e-6

#: Exact-comparison slack for quantities the algorithms compute through
#: one shared code path (budgets, penalties): any drift is a real bug.
STRICT_RTOL = 1e-9


def _close(a, b, rtol=STRICT_RTOL):
    a, b = float(a), float(b)
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _jsonable(value):
    """Coerce numpy scalars/arrays and tuples into JSON-safe values."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def _algo_label(algorithm):
    """Short label (pb/sb/ab/class name) for a live algorithm object."""
    if algorithm is None:
        return ""
    from repro.core.aligned_bound import AlignedBound
    from repro.core.plan_bouquet import PlanBouquet
    from repro.core.spill_bound import SpillBound

    for label, cls in (("pb", PlanBouquet), ("ab", AlignedBound),
                       ("sb", SpillBound)):
        if type(algorithm) is cls:
            return label
    return type(algorithm).__name__


@dataclass
class Violation:
    """One broken invariant, with enough context to reproduce it."""

    invariant: str
    message: str
    algorithm: str = ""
    engine: str = ""
    details: dict = field(default_factory=dict)

    def to_record(self):
        record = {
            "invariant": self.invariant,
            "message": self.message,
            "algorithm": self.algorithm,
            "engine": self.engine,
        }
        record.update(_jsonable(self.details))
        return record


class ConformanceMonitor:
    """Collects invariant checks and their violations.

    Args:
        jsonl_path: optional path; every violation is appended to it as
            one JSON line.  The file is created (truncated) up front so
            a clean run leaves an empty artifact rather than none.
    """

    def __init__(self, jsonl_path=None):
        self.jsonl_path = jsonl_path
        self.violations = []
        self.counters = {}
        self._context = {}
        if jsonl_path:
            with open(jsonl_path, "w"):
                pass

    # -- bookkeeping ---------------------------------------------------

    @property
    def ok(self):
        return not self.violations

    def _count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    @contextmanager
    def context(self, **kv):
        """Attach key/values (seed, workload name, ...) to every
        violation recorded inside the block."""
        previous = dict(self._context)
        self._context.update(kv)
        try:
            yield self
        finally:
            self._context = previous

    def record(self, invariant, message, algorithm=None, engine="",
               **details):
        merged = dict(self._context)
        merged.update(details)
        violation = Violation(
            invariant=invariant,
            message=message,
            algorithm=(algorithm if isinstance(algorithm, str)
                       else _algo_label(algorithm)),
            engine=engine,
            details=merged,
        )
        self.violations.append(violation)
        self._count("violations")
        self._count(f"violations[{invariant}]")
        if self.jsonl_path:
            with open(self.jsonl_path, "a") as fh:
                fh.write(json.dumps(violation.to_record(),
                                    sort_keys=True) + "\n")
        return violation

    def violations_by_invariant(self):
        out = {}
        for v in self.violations:
            out.setdefault(v.invariant, []).append(v)
        return out

    # -- invariant checks ----------------------------------------------

    def check_contour_ladder(self, contours, engine=""):
        """Paper Section 2.5: budgets are a geometric ladder at the
        configured ratio, first at ``C_min``, last capped at ``C_max``."""
        self._count("ladders")
        budgets = np.asarray(contours.budgets, dtype=float)
        ratio = float(contours.cost_ratio)
        ess = contours.ess
        m = len(budgets)
        if m == 0 or (np.diff(budgets) <= 0).any():
            self.record("contour-ladder",
                        "contour budgets are not strictly increasing",
                        engine=engine, budgets=budgets)
            return
        if m > 1 and not _close(budgets[0], ess.min_cost):
            self.record("contour-ladder",
                        "first contour budget is not C_min",
                        engine=engine, first=budgets[0],
                        min_cost=ess.min_cost)
        if not _close(budgets[-1], ess.max_cost):
            self.record("contour-ladder",
                        "last contour budget is not capped at C_max",
                        engine=engine, last=budgets[-1],
                        max_cost=ess.max_cost)
        for i in range(1, m - 1):
            if not _close(budgets[i], budgets[i - 1] * ratio):
                self.record(
                    "contour-ladder",
                    f"budget CC_{i + 1} is not {ratio} x CC_{i}",
                    engine=engine, contour=i + 1,
                    budget=budgets[i], previous=budgets[i - 1],
                )
        if m > 1 and budgets[-1] > budgets[-2] * ratio * (1.0 + STRICT_RTOL):
            self.record("contour-ladder",
                        "capped last contour exceeds the geometric step",
                        engine=engine, last=budgets[-1],
                        previous=budgets[-2])

    def check_sweep(self, suboptimality, algorithm, engine=""):
        """A sweep's sub-optimality array against the algorithm's own
        guarantee: every entry in ``[1, guarantee]`` (up to slack)."""
        self._count("sweeps")
        self._count(f"sweeps[{engine}]")
        sub = np.asarray(suboptimality, dtype=float)
        if sub.size == 0:
            return
        if not np.isfinite(sub).all():
            self.record("mso-bound", "non-finite sub-optimality in sweep",
                        algorithm, engine)
            return
        worst = int(np.argmax(sub))
        if sub.min() < 1.0 - RTOL:
            best = int(np.argmin(sub))
            self.record(
                "mso-bound", "sub-optimality below 1 (beats the oracle)",
                algorithm, engine,
                location=best, suboptimality=float(sub[best]),
            )
        guarantee = None
        if hasattr(algorithm, "mso_guarantee"):
            guarantee = float(algorithm.mso_guarantee())
            if sub[worst] > guarantee * (1.0 + RTOL):
                self.record(
                    "mso-bound",
                    f"sweep MSO {float(sub[worst]):.4g} exceeds the "
                    f"guarantee {guarantee:.4g}",
                    algorithm, engine,
                    location=worst, suboptimality=float(sub[worst]),
                    guarantee=guarantee,
                )

    def check_bit_identity(self, reference, other, algorithm,
                           engines=("loop", "other"),
                           invariant="bit-identity"):
        """Two sweeps must agree bit-for-bit (np.array_equal).

        ``invariant="prior-inert"`` checks a uniform-prior sweep against
        the plain one: ``UniformPrior`` is documented as an *exact*
        no-op, so any float drift means a scheduling hook leaked into
        the inert path.  Each invariant counts under its own key
        (``bit_identity`` / ``prior_inert``).
        """
        self._count(invariant.replace("-", "_"))
        a = np.asarray(reference, dtype=float)
        b = np.asarray(other, dtype=float)
        if a.shape == b.shape and np.array_equal(a, b):
            return True
        if a.shape != b.shape:
            self.record(invariant,
                        f"{engines[1]} sweep shape {b.shape} != "
                        f"{engines[0]} shape {a.shape}",
                        algorithm, engine=engines[1])
            return False
        bad = np.flatnonzero(a != b)
        self.record(
            invariant,
            f"{engines[1]} sweep differs from {engines[0]} at "
            f"{bad.size} location(s)",
            algorithm, engine=engines[1],
            num_mismatches=int(bad.size),
            first_mismatch=int(bad[0]),
            max_abs_deviation=float(np.abs(a - b).max()),
        )
        return False

    def check_run(self, result, algorithm, engine="run"):
        """All per-execution invariants of one traced discovery run.

        Algorithms without an ``mso_guarantee`` (the arena's fixed-plan
        rivals — that *is* their point) are exempt from the guarantee
        arm of ``mso-bound`` and from the contour-machinery checks:
        only the oracle floor (``sub >= 1``) and the generic sequence /
        charge accounting apply to them.
        """
        self._count("runs")
        sub = result.suboptimality
        if hasattr(algorithm, "mso_guarantee"):
            guarantee = float(algorithm.mso_guarantee())
            if not (1.0 - RTOL <= sub <= guarantee * (1.0 + RTOL)):
                self.record(
                    "mso-bound",
                    f"run sub-optimality {sub:.4g} outside "
                    f"[1, {guarantee:.4g}]",
                    algorithm, engine, qa=result.qa_coords,
                    suboptimality=float(sub), guarantee=guarantee,
                )
        elif sub < 1.0 - RTOL:
            self.record(
                "mso-bound",
                f"run sub-optimality {sub:.4g} beats the oracle",
                algorithm, engine, qa=result.qa_coords,
                suboptimality=float(sub),
            )
        records = result.executions
        if records is None:
            return
        self.check_records(records, result.total_cost, algorithm, engine,
                           qa=result.qa_coords)
        self._check_ladder_start(result, records, algorithm, engine)
        from repro.core.plan_bouquet import PlanBouquet
        from repro.core.spill_bound import SpillBound

        if isinstance(algorithm, PlanBouquet):
            self._check_pb_records(result, records, algorithm, engine)
        elif isinstance(algorithm, SpillBound):
            self._check_spill_records(result, records, algorithm, engine)

    def check_records(self, records, total_cost, algorithm, engine,
                      qa=None):
        """Executor-independent accounting of one run's
        :class:`~repro.core.discovery.ExecutionRecord` list.

        Needs no ``qa``, so it certifies any executor's log — engine
        runs included (``EngineReport.steps``): charges sum to
        ``total_cost``, killed executions are charged their budget and
        completed ones at most it, contours never regress, no spill
        touches an epp already learnt exactly (Lemma 3.1), and the run
        ends on exactly one completed normal-mode execution.  ``qa``
        only labels the violations.
        """
        if not records:
            self.record("sequence", "traced run recorded no executions",
                        algorithm, engine, qa=qa)
            return
        total = 0.0
        for rec in records:
            total += rec.charged
        if not _close(total, total_cost, RTOL):
            self.record(
                "charge-accounting",
                "record charges do not sum to the reported total cost",
                algorithm, engine, qa=qa,
                sum_charged=total, total_cost=total_cost,
            )
        last = 0
        learnt_exactly = set()
        for k, rec in enumerate(records):
            if rec.contour < last:
                self.record(
                    "sequence",
                    f"contour order regressed ({last} -> {rec.contour})",
                    algorithm, engine, qa=qa, execution=k,
                )
            last = rec.contour
            if not rec.completed and not _close(rec.charged, rec.budget):
                self.record(
                    "charge-accounting",
                    "killed execution not charged its full budget",
                    algorithm, engine, qa=qa, execution=k,
                    charged=rec.charged, budget=rec.budget,
                )
            if rec.completed and rec.charged > rec.budget * (1.0 + RTOL):
                self.record(
                    "charge-accounting",
                    "completed execution charged beyond its budget",
                    algorithm, engine, qa=qa, execution=k,
                    charged=rec.charged, budget=rec.budget,
                )
            if rec.mode == "spill":
                if rec.spill_dim in learnt_exactly:
                    self.record(
                        "halfspace",
                        f"spill execution on epp {rec.spill_dim} after it "
                        "was learnt exactly",
                        algorithm, engine, qa=qa, execution=k,
                        dim=rec.spill_dim,
                    )
                if rec.completed:
                    learnt_exactly.add(rec.spill_dim)
        normal_done = [k for k, r in enumerate(records)
                       if r.completed and r.mode == "normal"]
        if records[-1].completed is False:
            self.record("sequence",
                        "run ended on a killed execution",
                        algorithm, engine, qa=qa)
        if len(normal_done) != 1:
            self.record(
                "sequence",
                f"{len(normal_done)} completed normal-mode executions "
                "(expected exactly one, the final result)",
                algorithm, engine, qa=qa,
            )

    # -- per-record helpers --------------------------------------------

    def _check_ladder_start(self, result, records, algorithm, engine):
        """Ladder validity under a prior-scheduled starting contour.

        Only enforced when the algorithm carries an *active* prior
        schedule: without one, early contours may legitimately plan no
        steps (the walk crosses them without records), so a non-unit
        first contour proves nothing.  With one, the first charged
        execution must sit in ``[start, band(qa)]`` — above the band
        the scheduler would have skipped a rung that was not a
        guaranteed kill, breaking the bound's accounting.
        """
        schedule_of = getattr(algorithm, "prior_schedule", None)
        if schedule_of is None or not records:
            return
        schedule = schedule_of()
        if not schedule.active:
            return
        self._count("ladder_start")
        qa = result.qa_coords
        flat = algorithm.ess.grid.flat_index(qa)
        band = schedule.qa_band(flat)
        start = max(1, min(schedule.start_target, band))
        first = records[0].contour
        if first > band:
            self.record(
                "ladder-start",
                f"first execution on contour {first} above qa's band "
                f"{band} (a skipped rung was not a guaranteed kill)",
                algorithm, engine, qa=qa,
                first_contour=int(first), qa_band=int(band),
                start_target=int(schedule.start_target),
            )
        if first < start:
            self.record(
                "ladder-start",
                f"first execution on contour {first} below the "
                f"schedule's starting contour {start}",
                algorithm, engine, qa=qa,
                first_contour=int(first), start_contour=int(start),
            )

    def _check_pb_records(self, result, records, algorithm, engine):
        """PlanBouquet: anorexic lambda accounting (paper Section 2.6)."""
        qa = result.qa_coords
        reduced = {rc.index: rc for rc in algorithm.reduction.reduced}
        rho = algorithm.rho
        lam = algorithm.lam
        per_contour = {}
        for k, rec in enumerate(records):
            if rec.mode != "normal" or rec.spill_dim is not None:
                self.record("sequence",
                            "PlanBouquet recorded a spill execution",
                            algorithm, engine, qa=qa, execution=k)
                continue
            rc = reduced.get(rec.contour)
            if rc is None:
                self.record("lambda-accounting",
                            f"execution on unknown contour {rec.contour}",
                            algorithm, engine, qa=qa, execution=k)
                continue
            if not _close(rec.budget, rc.inflated_budget):
                self.record(
                    "lambda-accounting",
                    f"budget is not the (1+lambda) inflated contour cost "
                    f"(lambda={lam})",
                    algorithm, engine, qa=qa, execution=k,
                    budget=rec.budget, inflated=rc.inflated_budget,
                )
            if rec.plan_id not in rc.plan_ids:
                self.record(
                    "lambda-accounting",
                    f"plan {rec.plan_id} is not in the reduced bouquet "
                    f"of contour {rec.contour}",
                    algorithm, engine, qa=qa, execution=k,
                )
            per_contour[rec.contour] = per_contour.get(rec.contour, 0) + 1
        for contour, count in per_contour.items():
            if count > rho:
                self.record(
                    "lambda-accounting",
                    f"{count} executions on contour {contour} exceed the "
                    f"reduced density rho={rho}",
                    algorithm, engine, qa=qa, contour=contour,
                )

    def _check_spill_records(self, result, records, algorithm, engine):
        """SpillBound/AlignedBound: half-space pruning (Lemma 3.1),
        exact learning, learned-bound monotonicity, the budget ladder
        with replacement penalties, and Lemma 4.4 repeat accounting."""
        qa = result.qa_coords
        grid = algorithm.ess.grid
        contours = algorithm.contours
        d = algorithm.num_dims
        lower_bound = {}
        repeats = 0
        for k, rec in enumerate(records):
            cc = contours.budget(rec.contour)
            if rec.mode == "normal":
                # The 1-D PlanBouquet tail: plain contour budgets.
                if not _close(rec.budget, cc):
                    self.record(
                        "budget-ladder",
                        "1-D tail budget is not the contour cost",
                        algorithm, engine, qa=qa, execution=k,
                        budget=rec.budget, contour_cost=cc,
                    )
                continue
            dim = rec.spill_dim
            if not rec.fresh:
                repeats += 1
            if rec.penalty < 1.0 - STRICT_RTOL:
                self.record("budget-ladder",
                            f"replacement penalty {rec.penalty} below 1",
                            algorithm, engine, qa=qa, execution=k)
            if not _close(rec.budget, rec.penalty * cc):
                self.record(
                    "budget-ladder",
                    "spill budget is not penalty x contour cost",
                    algorithm, engine, qa=qa, execution=k,
                    budget=rec.budget, penalty=rec.penalty,
                    contour_cost=cc,
                )
            qa_sel = float(grid.selectivity(dim, qa[dim]))
            if rec.completed:
                # Lemma 3.1, learning arm: the epp is learnt *exactly* —
                # through the same grid lookup, so bit-exactly.
                if float(rec.learned_selectivity) != qa_sel:
                    self.record(
                        "exact-learning",
                        "completed spill did not learn the epp exactly",
                        algorithm, engine, qa=qa, execution=k, dim=dim,
                        learned=rec.learned_selectivity, actual=qa_sel,
                    )
                if lower_bound.get(dim, 0.0) > qa_sel * (1.0 + STRICT_RTOL):
                    self.record(
                        "learned-monotonic",
                        "exact learning fell below an earlier failed-"
                        "spill lower bound",
                        algorithm, engine, qa=qa, execution=k, dim=dim,
                        learned=qa_sel, prior_bound=lower_bound[dim],
                    )
            else:
                # Lemma 3.1, pruning arm: the kill proves qa.j beyond
                # the learnable bound q_max^j.j (strictly).
                bound = float(rec.learned_selectivity)
                if not qa_sel > bound * (1.0 - STRICT_RTOL):
                    self.record(
                        "halfspace",
                        "killed spill did not prove qa beyond its "
                        "learnable bound",
                        algorithm, engine, qa=qa, execution=k, dim=dim,
                        qa_selectivity=qa_sel, bound=bound,
                    )
                lower_bound[dim] = max(lower_bound.get(dim, 0.0), bound)
        if repeats != result.num_repeat_executions:
            self.record(
                "repeat-bound",
                "traced repeat count disagrees with the result counter",
                algorithm, engine, qa=qa,
                traced=repeats, counted=result.num_repeat_executions,
            )
        if result.num_repeat_executions > d * (d - 1) // 2:
            self.record(
                "repeat-bound",
                f"{result.num_repeat_executions} repeat executions exceed "
                f"the Lemma 4.4 bound D(D-1)/2 = {d * (d - 1) // 2}",
                algorithm, engine, qa=qa,
            )
