"""The randomized conformance suite: every algorithm x every engine.

For each seeded workload (see :mod:`repro.conformance.workloads`) the
suite runs PlanBouquet, SpillBound and AlignedBound through all three
sweep engines and hands every sweep and run it produces to a
:class:`~repro.conformance.monitors.ConformanceMonitor`:

* the **loop** reference sweep (per-location ``run(qa)``) — from
  :func:`~repro.core.mso.evaluate_algorithm`, checked against the
  algorithm's guarantee;
* the **batch** frontier engine — checked the same way, then compared
  bit-for-bit against the loop reference;
* the **parallel** multiprocess engine — invoked directly through
  :func:`~repro.perf.parallel.parallel_suboptimality` (bypassing the
  serial fallback so a skip is reported honestly, never silently
  replaced by the batch result), then compared bit-for-bit against the
  loop reference;
* a sample of **traced scalar runs** per algorithm, feeding the
  per-execution invariants (half-space pruning, exact learning,
  lambda accounting, budget ladders, Lemma 4.4 repeats).

``run_suite`` aggregates everything into a :class:`SuiteReport`; the
``repro check`` CLI renders it and exits nonzero on any violation.
``inject`` deliberately corrupts one observation (a sweep entry beyond
the MSO bound, or a tampered learned selectivity) so the negative path
— monitors actually firing, the CLI actually failing — stays tested.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.conformance.monitors import ConformanceMonitor
from repro.conformance.workloads import build_conformance_instance
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span as obs_span
from repro.core.aligned_bound import AlignedBound, contour_alignment_stats
from repro.core.mso import evaluate_algorithm
from repro.core.plan_bouquet import PlanBouquet
from repro.core.spill_bound import SpillBound
from repro.perf.parallel import parallel_suboptimality
from repro.prior import UniformPrior

#: Engines the suite can exercise.
SUITE_ENGINES = ("loop", "batch", "parallel")

#: Injection modes for negative testing.
INJECT_MODES = ("mso", "learning")

#: Worker-pool size for the parallel sweeps.
PARALLEL_WORKERS = 2


@dataclass
class WorkloadOutcome:
    """What the suite did for one seeded workload."""

    seed: int
    name: str
    num_epps: int
    resolution: int
    grid_points: int
    cost_ratio: float
    cost_noise: float
    alignment_fraction: float
    engines: dict = field(default_factory=dict)
    traced_runs: int = 0


@dataclass
class SuiteReport:
    """Aggregate result of a conformance-suite invocation."""

    outcomes: list
    monitor: ConformanceMonitor
    engines: tuple
    inject: str = None

    @property
    def ok(self):
        return self.monitor.ok

    def summary(self):
        """Flat metric dict for the CLI table / CI log."""
        counters = self.monitor.counters
        statuses = [
            status
            for outcome in self.outcomes
            for per_algo in outcome.engines.values()
            for status in per_algo.values()
        ]
        return {
            "workloads": len(self.outcomes),
            "engines": ",".join(self.engines),
            "traced_runs": counters.get("runs", 0),
            "sweeps_checked": counters.get("sweeps", 0),
            "loop_sweeps": counters.get("sweeps[loop]", 0),
            "batch_sweeps": counters.get("sweeps[batch]", 0),
            "parallel_sweeps": counters.get("sweeps[parallel]", 0),
            "parallel_skipped": statuses.count("skipped"),
            "bit_identity_checks": counters.get("bit_identity", 0),
            "bit_identity_mismatches":
                counters.get("violations[bit-identity]", 0),
            "violations": counters.get("violations", 0),
        }


def _algorithms(instance, prior=None):
    from repro.prior import make_prior

    built = make_prior(prior, instance.query, instance.ess)
    return {
        "pb": PlanBouquet(instance.ess, instance.contours, prior=built),
        "sb": SpillBound(instance.ess, instance.contours, prior=built),
        "ab": AlignedBound(instance.ess, instance.contours, prior=built),
    }


def _checked_sweep(monitor, algorithm, engine):
    """One :func:`evaluate_algorithm` sweep, checked against the
    algorithm's guarantee under the engine that actually ran it."""
    evaluation = evaluate_algorithm(algorithm, engine=engine)
    monitor.check_sweep(evaluation.suboptimality, algorithm,
                        engine=evaluation.engine)
    return evaluation.suboptimality


def run_workload(seed, monitor, engines=SUITE_ENGINES, trace_samples=3,
                 use_cache=True, ess_mode=None, prior=None):
    """Run one seeded workload through every algorithm and engine.

    Every sweep is checked against its algorithm's guarantee;
    per-execution invariants come from explicitly traced runs at
    ``trace_samples`` seed-chosen locations (always including the
    grid terminus — the worst-case corner).

    With ``prior`` set (``"sampled"``/``"history"``) every algorithm
    runs under the prior-guided scheduler, so every invariant — the
    MSO bound included — is re-proved with aggressive scheduling on.
    Without it, a uniform-prior twin of each algorithm additionally
    runs one batched sweep that must be bit-identical to the plain
    loop reference (the ``prior-inert`` invariant).

    Returns a :class:`WorkloadOutcome`.
    """
    REGISTRY.incr("conformance_workloads")
    instance = build_conformance_instance(seed, use_cache=use_cache,
                                          ess_mode=ess_mode)
    ess, contours = instance.ess, instance.contours
    num_points = ess.grid.num_points
    outcome = WorkloadOutcome(
        seed=seed,
        name=instance.name,
        num_epps=instance.num_epps,
        resolution=instance.resolution,
        grid_points=num_points,
        cost_ratio=instance.cost_ratio,
        cost_noise=instance.cost_noise,
        alignment_fraction=contour_alignment_stats(
            ess, contours).fraction_aligned(1.0),
    )
    with obs_span("conformance.workload", seed=seed,
                  workload=instance.name, grid_points=num_points), \
            monitor.context(seed=seed, workload=instance.name):
        monitor.check_contour_ladder(contours)
        rng = np.random.default_rng([seed, 0xA11])
        samples = set()
        if trace_samples > 0:
            samples.add(num_points - 1)  # the terminus corner
            extra = rng.choice(num_points,
                               size=min(trace_samples, num_points),
                               replace=False)
            samples.update(int(f) for f in extra)
        for label, algorithm in _algorithms(instance, prior=prior).items():
            per_engine = {}
            reference = _checked_sweep(monitor, algorithm, "loop")
            per_engine["loop"] = "checked"
            if prior is None and "batch" in engines:
                # The uniform prior must be an exact no-op: a
                # uniform-twin batched sweep vs the plain loop
                # reference, bit-for-bit.
                twin = type(algorithm)(ess, contours, prior=UniformPrior())
                inert = monitor.check_bit_identity(
                    reference, _checked_sweep(monitor, twin, "batch"),
                    algorithm, ("loop", "batch"), invariant="prior-inert")
                per_engine["uniform-prior"] = (
                    "inert" if inert else "mismatch")
            if "batch" in engines:
                identical = monitor.check_bit_identity(
                    reference, _checked_sweep(monitor, algorithm, "batch"),
                    algorithm, ("loop", "batch"))
                per_engine["batch"] = (
                    "identical" if identical else "mismatch")
            if "parallel" in engines:
                # None only when the pool failed: the skip is
                # recorded, never replaced by another engine.
                par = parallel_suboptimality(
                    algorithm, range(num_points), PARALLEL_WORKERS)
                if par is None:
                    per_engine["parallel"] = "skipped"
                else:
                    monitor.check_sweep(par, algorithm, engine="parallel")
                    identical = monitor.check_bit_identity(
                        reference, par, algorithm, ("loop", "parallel"))
                    per_engine["parallel"] = (
                        "identical" if identical else "mismatch")
            for flat in sorted(samples):
                result = algorithm.run(flat, trace=True)
                monitor.check_run(result, algorithm, engine="loop")
                outcome.traced_runs += 1
            outcome.engines[label] = per_engine
    return outcome


def _inject_violation(mode, monitor, instance):
    """Feed the monitor one deliberately corrupted observation."""
    sb = SpillBound(instance.ess, instance.contours)
    with monitor.context(seed=instance.seed, injected=mode):
        if mode == "mso":
            sub = np.ones(4, dtype=float)
            sub[0] = sb.mso_guarantee() * 4.0
            monitor.check_sweep(sub, sb, engine="injected")
        elif mode == "learning":
            result = sb.run(0, trace=True)
            tampered = []
            broken = False
            for rec in result.executions:
                if not broken and rec.mode == "spill" and rec.completed:
                    rec = dataclasses.replace(
                        rec, learned_selectivity=rec.learned_selectivity
                        * 7.0 + 1.0)
                    broken = True
                tampered.append(rec)
            result.executions = tampered
            monitor.check_run(result, sb, engine="injected")
        else:
            raise ValueError(
                f"unknown injection mode {mode!r}; "
                f"choose from {INJECT_MODES}"
            )


def run_suite(num_workloads=200, base_seed=0, engines=SUITE_ENGINES,
              trace_samples=3, jsonl_path=None, use_cache=True,
              inject=None, progress=None, ess_mode=None, prior=None):
    """Run the conformance suite over ``num_workloads`` seeds.

    Args:
        num_workloads: seeds ``base_seed .. base_seed+num_workloads-1``.
        engines: subset of :data:`SUITE_ENGINES` (loop always runs — it
            is the reference every other engine is compared against).
        trace_samples: traced scalar runs per (workload, algorithm).
        jsonl_path: violation JSONL artifact path (created even when
            empty, so CI always has a file to upload).
        use_cache: consult the persistent ESS archive cache.
        ess_mode: ``"eager"``/``"lazy"`` surface construction for every
            workload (default from ``REPRO_ESS``); the lazy mode must
            conform identically — resolved points are bit-identical.
        inject: ``"mso"`` or ``"learning"`` — corrupt one observation
            (negative testing; the report must come back not-ok).
        progress: optional ``callable(completed, total, outcome)``.
        prior: ``"sampled"``/``"history"`` runs every algorithm under
            the prior-guided scheduler (re-proving the invariants with
            aggressive scheduling on); None additionally checks the
            uniform prior's bit-exact inertness.

    Returns a :class:`SuiteReport`.
    """
    engines = tuple(engines)
    unknown = set(engines) - set(SUITE_ENGINES)
    if unknown:
        raise ValueError(
            f"unknown conformance engines {sorted(unknown)}; "
            f"choose from {SUITE_ENGINES}"
        )
    monitor = ConformanceMonitor(jsonl_path=jsonl_path)
    outcomes = []
    for k in range(num_workloads):
        seed = base_seed + k
        outcome = run_workload(seed, monitor, engines=engines,
                               trace_samples=trace_samples,
                               use_cache=use_cache, ess_mode=ess_mode,
                               prior=prior)
        outcomes.append(outcome)
        if progress is not None:
            progress(k + 1, num_workloads, outcome)
    if inject is not None:
        _inject_violation(inject, monitor,
                          build_conformance_instance(base_seed,
                                                     use_cache=use_cache,
                                                     ess_mode=ess_mode))
    return SuiteReport(outcomes=outcomes, monitor=monitor,
                       engines=engines, inject=inject)
