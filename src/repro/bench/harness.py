"""Experiment runners: one function per table/figure of the paper.

Each ``run_*`` function computes the rows behind one artifact of the
paper's evaluation (Section 6) and returns plain data structures; the
benchmark suite renders them with :mod:`repro.bench.report` and asserts
the *shape* findings (who wins, by what rough factor) that DESIGN.md
catalogues.  Everything flows through :func:`repro.bench.workloads.load`
so ESS construction is shared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import settings
from repro.bench import workloads
from repro.catalog.datagen import DataGenerator, scale_cardinalities
from repro.core.aligned_bound import AlignedBound, contour_alignment_stats
from repro.core.lower_bound import lower_bound_demonstration
from repro.core.mso import evaluate_algorithm
from repro.core.native import NativeOptimizer
from repro.core.plan_bouquet import PlanBouquet
from repro.core.spill_bound import SpillBound
from repro.engine.driver import (
    EngineDiscoveryDriver,
    measured_location,
    native_run,
    oracle_run,
)
from repro.ess.contours import ContourSet
from repro.ess.reduction import DEFAULT_LAMBDA
from repro.obs.metrics import REGISTRY
from repro.optimizer.cost_model import DEFAULT_COST_MODEL
from repro.optimizer.plans import epp_total_order


@dataclass
class AlgorithmProfiles:
    """All three algorithms evaluated over one workload instance."""

    instance: object
    pb: object
    sb: object
    ab: object
    pb_eval: object = None
    sb_eval: object = None
    ab_eval: object = None


_PROFILE_CACHE = {}


def algorithm_profiles(name, with_eval=("pb", "sb", "ab"), profile=None):
    """Build (and cache) PB/SB/AB plus requested exhaustive evaluations."""
    key = (name, settings.get("REPRO_PROFILE", profile))
    prof = _PROFILE_CACHE.get(key)
    if prof is None:
        instance = workloads.load(name, profile=profile)
        prof = AlgorithmProfiles(
            instance=instance,
            pb=PlanBouquet(instance.ess, instance.contours),
            sb=SpillBound(instance.ess, instance.contours),
            ab=AlignedBound(instance.ess, instance.contours),
        )
        _PROFILE_CACHE[key] = prof
    # The exhaustive sweeps parallelize across processes when
    # REPRO_WORKERS > 1 (see repro.perf.parallel); each one reports its
    # wall time as a registry phase either way.
    if "pb" in with_eval and prof.pb_eval is None:
        with REGISTRY.phase("sweep_pb"):
            prof.pb_eval = evaluate_algorithm(prof.pb)
    if "sb" in with_eval and prof.sb_eval is None:
        with REGISTRY.phase("sweep_sb"):
            prof.sb_eval = evaluate_algorithm(prof.sb)
    if "ab" in with_eval and prof.ab_eval is None:
        with REGISTRY.phase("sweep_ab"):
            prof.ab_eval = evaluate_algorithm(prof.ab)
    return prof


# ----------------------------------------------------------------------
# Figure 8: MSO guarantees, PB vs SB
# ----------------------------------------------------------------------

def run_fig8(names=None, profile=None):
    """Rows: query, D, rho_red, PB guarantee 4(1+lam)rho, SB D^2+3D."""
    names = names or workloads.evaluation_suite()
    rows = []
    for name in names:
        prof = algorithm_profiles(name, with_eval=(), profile=profile)
        rows.append({
            "query": name,
            "D": prof.instance.num_epps,
            "rho_red": prof.pb.rho,
            "pb_msog": prof.pb.mso_guarantee(),
            "sb_msog": prof.sb.mso_guarantee(),
        })
    return rows


# ----------------------------------------------------------------------
# Figure 9: guarantee vs dimensionality (Q91, D = 2..6)
# ----------------------------------------------------------------------

def run_fig9(dims=(2, 3, 4, 5, 6), profile=None):
    rows = []
    for d in dims:
        prof = algorithm_profiles(f"{d}D_Q91", with_eval=(), profile=profile)
        rows.append({
            "D": d,
            "rho_red": prof.pb.rho,
            "pb_msog": prof.pb.mso_guarantee(),
            "sb_msog": prof.sb.mso_guarantee(),
        })
    return rows


# ----------------------------------------------------------------------
# Figures 10 / 11: empirical MSO and ASO, PB vs SB
# ----------------------------------------------------------------------

def run_fig10(names=None, profile=None):
    names = names or workloads.evaluation_suite()
    rows = []
    for name in names:
        prof = algorithm_profiles(name, with_eval=("pb", "sb"), profile=profile)
        rows.append({
            "query": name,
            "D": prof.instance.num_epps,
            "pb_msoe": prof.pb_eval.mso,
            "sb_msoe": prof.sb_eval.mso,
            "pb_msog": prof.pb.mso_guarantee(),
            "sb_msog": prof.sb.mso_guarantee(),
        })
    return rows


def run_fig11(names=None, profile=None):
    names = names or workloads.evaluation_suite()
    rows = []
    for name in names:
        prof = algorithm_profiles(name, with_eval=("pb", "sb"), profile=profile)
        rows.append({
            "query": name,
            "pb_aso": prof.pb_eval.aso,
            "sb_aso": prof.sb_eval.aso,
        })
    return rows


# ----------------------------------------------------------------------
# Figure 12: sub-optimality distribution histogram
# ----------------------------------------------------------------------

def run_fig12(name="4D_Q91", bin_width=5.0, profile=None):
    prof = algorithm_profiles(name, with_eval=("pb", "sb"), profile=profile)
    edges_pb, frac_pb = prof.pb_eval.histogram(bin_width)
    edges_sb, frac_sb = prof.sb_eval.histogram(bin_width)
    return {
        "query": name,
        "pb": (edges_pb, frac_pb),
        "sb": (edges_sb, frac_sb),
        "pb_below_first_bin": prof.pb_eval.fraction_below(bin_width),
        "sb_below_first_bin": prof.sb_eval.fraction_below(bin_width),
    }


# ----------------------------------------------------------------------
# Figure 13: empirical MSO, SB vs AB (with the 2D+2 reference)
# ----------------------------------------------------------------------

def run_fig13(names=None, profile=None):
    names = names or workloads.evaluation_suite()
    rows = []
    for name in names:
        prof = algorithm_profiles(name, with_eval=("sb", "ab"), profile=profile)
        low, high = prof.ab.mso_guarantee_range()
        rows.append({
            "query": name,
            "D": prof.instance.num_epps,
            "sb_msoe": prof.sb_eval.mso,
            "ab_msoe": prof.ab_eval.mso,
            "ab_low_bound": low,
            "ab_high_bound": high,
        })
    return rows


# ----------------------------------------------------------------------
# Table 2: cost of enforcing contour alignment
# ----------------------------------------------------------------------

def run_table2(names=None, thresholds=(1.2, 1.5, 2.0), profile=None):
    names = names or ["3D_Q96", "4D_Q7", "4D_Q26", "4D_Q91", "5D_Q29",
                      "5D_Q84"]
    rows = []
    for name in names:
        instance = workloads.load(name, profile=profile)
        stats = contour_alignment_stats(instance.ess, instance.contours)
        row = {
            "query": name,
            "original_pct": 100.0 * stats.fraction_aligned(1.0),
            "max_penalty": stats.max_penalty,
        }
        for threshold in thresholds:
            row[f"pct_at_{threshold}"] = 100.0 * stats.fraction_aligned(threshold)
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Table 3: SpillBound execution drill-down on Q91
# ----------------------------------------------------------------------

def run_table3(name="4D_Q91", qa=None, profile=None):
    """Per-execution trace: contour, epp, plan, learnt sel, running cost."""
    instance = workloads.load(name, profile=profile)
    prof = algorithm_profiles(name, with_eval=(), profile=profile)
    location = instance.qa_coords() if qa is None else qa
    result = prof.sb.run(location, trace=True)
    rows = []
    running = 0.0
    for record in result.executions:
        running += record.charged
        rows.append({
            "contour": record.contour,
            "mode": record.mode,
            "epp": ("e%d" % (record.spill_dim + 1)
                    if record.spill_dim is not None else "-"),
            "plan": record.plan_id,
            "learned_sel": record.learned_selectivity,
            "completed": record.completed,
            "cumulative_cost": running,
        })
    return {
        "query": name,
        "qa": location,
        "suboptimality": result.suboptimality,
        "rows": rows,
    }


# ----------------------------------------------------------------------
# Table 4: AlignedBound's maximum partition penalty
# ----------------------------------------------------------------------

def run_table4(names=None, profile=None):
    names = names or workloads.evaluation_suite()
    rows = []
    for name in names:
        # The exhaustive AB sweep updates observed_max_penalty as a side
        # effect, so Table 4 shares Figure 13's evaluation work.
        prof = algorithm_profiles(name, with_eval=("ab",), profile=profile)
        rows.append({
            "query": name,
            "max_penalty": prof.ab.observed_max_penalty,
        })
    return rows


# ----------------------------------------------------------------------
# Figure 7: the 2-D execution trace (Manhattan profile)
# ----------------------------------------------------------------------

def run_fig7(name="2D_Q91", qa=(0.04, 0.1), profile=None):
    """The 2D-SpillBound trace: per-execution qrun waypoints."""
    instance = workloads.load(name, profile=profile)
    prof = algorithm_profiles(name, with_eval=(), profile=profile)
    grid = instance.ess.grid
    coords = grid.snap(qa)
    result = prof.sb.run(coords, trace=True)
    qrun = [grid.values[d][0] for d in range(grid.num_dims)]
    waypoints = [tuple(qrun)]
    rows = []
    for record in result.executions:
        if record.spill_dim is not None and record.learned_selectivity == record.learned_selectivity:
            qrun[record.spill_dim] = max(
                qrun[record.spill_dim], record.learned_selectivity
            )
        waypoints.append(tuple(qrun))
        rows.append({
            "contour": record.contour,
            "mode": record.mode,
            "plan": record.plan_id,
            "spill_dim": record.spill_dim,
            "qrun": tuple(qrun),
            "completed": record.completed,
        })
    return {
        "query": name,
        "qa": tuple(grid.values[d][c] for d, c in enumerate(coords)),
        "suboptimality": result.suboptimality,
        "num_contours": instance.contours.num_contours,
        "waypoints": waypoints,
        "rows": rows,
    }


# ----------------------------------------------------------------------
# Section 6.3: the wall-clock (actual execution) experiment
# ----------------------------------------------------------------------

def run_wallclock(name="mini4d", row_budget=40_000, seed=11, engine="vector",
                  resolution=None):
    """Native vs SpillBound vs AlignedBound on real engine executions.

    The paper runs 4D Q91 on 100 GB; we run a down-scaled generated
    instance (documented substitution) with the same mechanics: real
    budgeted executions, spill-mode monitoring, and actual costs.

    Args:
        engine: execution engine (``vector`` / ``volcano``) threaded
            into every engine run.
        resolution: optional ESS grid resolution override.
    """
    from repro.bench.wallclock import build_wallclock_setup

    kwargs = {} if resolution is None else {"resolution": resolution}
    setup = build_wallclock_setup(row_budget=row_budget, seed=seed, **kwargs)
    ess, contours, gen, query = (
        setup.ess, setup.contours, setup.generator, setup.query
    )
    qa = measured_location(gen, query)
    oracle = oracle_run(ess, gen, qa, engine=engine)
    native = native_run(ess, gen, engine=engine)
    sb_report = EngineDiscoveryDriver(SpillBound(ess, contours), gen,
                                      engine=engine).run()
    ab_report = EngineDiscoveryDriver(AlignedBound(ess, contours), gen,
                                      engine=engine).run()
    return {
        "qa": qa,
        "oracle_cost": oracle.cost_spent,
        "oracle_rows": oracle.rows_out,
        "native_cost": native.cost_spent,
        "native_subopt": native.cost_spent / oracle.cost_spent,
        "sb_cost": sb_report.total_cost,
        "sb_subopt": sb_report.total_cost / oracle.cost_spent,
        "sb_steps": sb_report.num_steps,
        "ab_cost": ab_report.total_cost,
        "ab_subopt": ab_report.total_cost / oracle.cost_spent,
        "ab_steps": ab_report.num_steps,
        "rows_match": (oracle.rows_out == native.rows_out
                       == sb_report.rows_out == ab_report.rows_out),
        "sb_report": sb_report,
        "ab_report": ab_report,
    }


# ----------------------------------------------------------------------
# Guarantee-conformance suite (the ``repro check`` experiment)
# ----------------------------------------------------------------------

def run_conformance(num_workloads=200, base_seed=0,
                    engines=("loop", "batch", "parallel"), trace_samples=3,
                    jsonl_path=None, use_cache=True, inject=None,
                    progress=None, ess_mode=None, prior=None):
    """Seeded randomized workloads under runtime invariant monitors.

    Runs PB/SB/AB across every requested sweep engine on
    ``num_workloads`` seeded random workloads, checking the paper's
    per-execution invariants and the engines' bit-identity (see
    :mod:`repro.conformance.suite`).  ``inject`` corrupts one
    observation for negative testing; ``prior`` re-proves every
    invariant with the prior-guided scheduler enabled.

    Returns a :class:`~repro.conformance.suite.SuiteReport`.
    """
    from repro.conformance.suite import run_suite

    with REGISTRY.phase("conformance_suite"):
        return run_suite(
            num_workloads=num_workloads,
            base_seed=base_seed,
            engines=engines,
            trace_samples=trace_samples,
            jsonl_path=jsonl_path,
            use_cache=use_cache,
            inject=inject,
            progress=progress,
            ess_mode=ess_mode,
            prior=prior,
        )


# ----------------------------------------------------------------------
# Section 6.5: the JOB benchmark experiment
# ----------------------------------------------------------------------

def run_job(profile=None):
    prof = algorithm_profiles("3D_JOB1a", with_eval=("sb", "ab"),
                              profile=profile)
    native = NativeOptimizer(prof.instance.ess)
    return {
        "query": "JOB 1a",
        "native_mso": native.mso(),
        "sb_msoe": prof.sb_eval.mso,
        "ab_msoe": prof.ab_eval.mso,
        "sb_msog": prof.sb.mso_guarantee(),
    }


# ----------------------------------------------------------------------
# Theorem 4.6: lower-bound demonstration
# ----------------------------------------------------------------------

def run_lower_bound(dims=(2, 3, 4, 5, 6)):
    return [
        {"D": d, "measured_mso": lower_bound_demonstration(d)} for d in dims
    ]


# ----------------------------------------------------------------------
# Ablations (DESIGN.md Section 5)
# ----------------------------------------------------------------------

def run_ablation_cost_ratio(name="4D_Q91", ratios=(1.5, 1.8, 2.0, 3.0),
                            profile=None):
    """Contour spacing sweep (paper Section 4.2 remark)."""
    rows = []
    for ratio in ratios:
        instance = workloads.load(name, profile=profile, cost_ratio=ratio)
        sb = SpillBound(instance.ess, instance.contours)
        evaluation = evaluate_algorithm(sb)
        rows.append({
            "ratio": ratio,
            "num_contours": instance.contours.num_contours,
            "sb_msoe": evaluation.mso,
            "sb_aso": evaluation.aso,
        })
    return rows


def run_ablation_lambda(name="4D_Q91", lams=(0.0, 0.1, 0.2, 0.5),
                        profile=None):
    """Anorexic-reduction threshold sweep for PlanBouquet."""
    instance = workloads.load(name, profile=profile)
    rows = []
    for lam in lams:
        pb = PlanBouquet(instance.ess, instance.contours, lam=lam)
        evaluation = evaluate_algorithm(pb)
        rows.append({
            "lambda": lam,
            "rho_red": pb.rho,
            "pb_msog": pb.mso_guarantee(),
            "pb_msoe": evaluation.mso,
        })
    return rows


def run_ablation_resolution(name="3D_Q15", resolutions=(6, 10, 14, 18)):
    """Grid-resolution stability of the empirical MSO."""
    rows = []
    for res in resolutions:
        instance = workloads.load(name, resolution=res)
        sb = SpillBound(instance.ess, instance.contours)
        evaluation = evaluate_algorithm(sb)
        rows.append({
            "resolution": res,
            "grid_points": instance.ess.grid.num_points,
            "sb_msoe": evaluation.mso,
            "sb_aso": evaluation.aso,
        })
    return rows


def run_ablation_cost_noise(name="4D_Q26", deltas=(0.0, 0.1, 0.3),
                            profile=None):
    """Bounded cost-model error (paper Section 7): guarantee inflates by
    (1 + delta)^2 — discovery runs against a noisy model, sub-optimality
    is judged by the true one."""
    base = workloads.load(name, profile=profile)
    true_opt = base.ess.optimal_cost
    rows = []
    for delta in deltas:
        noisy_model = DEFAULT_COST_MODEL.with_noise(delta, seed=5)
        instance = workloads.load(name, profile=profile,
                                  cost_model=noisy_model)
        sb = SpillBound(instance.ess, instance.contours)
        sub = evaluate_algorithm(sb).suboptimality
        # Re-judge against the true optimal surface.
        adjusted = sub * instance.ess.optimal_cost / true_opt
        rows.append({
            "delta": delta,
            "sb_msoe_vs_true": float(np.max(adjusted)),
            "bound_with_inflation": sb.mso_guarantee() * (1 + delta) ** 2,
        })
    return rows


def run_ablation_search_space(name="4D_Q91", profile=None):
    """Bushy vs left-deep optimizer search space.

    The discovery algorithms consume whatever POSP the optimizer
    produces; this ablation shows how the search space shapes the plan
    diagram (POSP size, contour density) and the resulting MSO.
    """
    from repro.ess.ocs import ESS

    instance = workloads.load(name, profile=profile)
    rows = []
    for label, left_deep in (("bushy", False), ("left-deep", True)):
        if left_deep:
            ess = ESS.build(instance.query, instance.ess.grid,
                            left_deep=True)
            contours = ContourSet(ess)
        else:
            ess, contours = instance.ess, instance.contours
        sb = SpillBound(ess, contours)
        evaluation = evaluate_algorithm(sb)
        rows.append({
            "space": label,
            "posp_size": ess.posp_size,
            "rho": contours.max_density,
            "origin_cost": ess.min_cost,
            "sb_msoe": evaluation.mso,
            "sb_aso": evaluation.aso,
        })
    return rows


def run_extension_dependence(name="3D_Q15", thetas=(0.0, 0.3, 0.7),
                             pair=(0, 1), profile=None):
    """The future-work extension: SpillBound under SI violation.

    The discovery machinery stays SI-built; execution outcomes follow
    fuzzy-AND-correlated cardinalities of strength theta between one epp
    pair.  Reports the empirical MSO drift plus the Section 7 reference
    envelope computed from the observed correction-factor bound.
    """
    from repro.ess.dependence import (
        CorrelatedSpillBound,
        CorrelationSpec,
        joint_correction,
    )

    instance = workloads.load(name, profile=profile)
    grid = instance.ess.grid
    rows = []
    for theta in thetas:
        spec = CorrelationSpec(pair[0], pair[1], theta)
        algorithm = CorrelatedSpillBound(instance.ess, [spec],
                                         instance.contours)
        evaluation = evaluate_algorithm(algorithm)
        # The worst correction factor over the grid bounds the effective
        # cost-model error delta of Section 7.
        worst_factor = float(np.max(joint_correction(
            grid.sel_array(pair[0]), grid.sel_array(pair[1]), theta,
        )))
        rows.append({
            "theta": theta,
            "sb_msoe": evaluation.mso,
            "sb_aso": evaluation.aso,
            "worst_correction": worst_factor,
            "si_guarantee": SpillBound(instance.ess,
                                       instance.contours).mso_guarantee(),
        })
    return rows


def run_ablation_spill_order(name="4D_Q26", profile=None):
    """Why the pipeline-based spill total order matters.

    Compares the paper's ordering against a degenerate 'first epp by
    dimension index' policy: the degenerate policy can pick a spill node
    whose subtree still contains unlearned epps, voiding guaranteed
    learning.  We count, over all POSP plans, how often the two orders
    disagree and how often the degenerate choice is unsound.
    """
    instance = workloads.load(name, profile=profile)
    ess = instance.ess
    query = ess.query
    all_dims = list(range(query.num_epps))
    disagreements = 0
    unsound = 0
    for pid in range(ess.posp_size):
        order = ess.spill_order(pid)
        paper_choice = order[0]
        naive_choice = min(all_dims)
        if paper_choice != naive_choice:
            disagreements += 1
            # Unsound if the naive node's subtree holds another epp that
            # precedes it in execution order (its selectivity unknown).
            naive_pos = order.index(naive_choice)
            if naive_pos > 0:
                unsound += 1
    return {
        "query": name,
        "posp_size": ess.posp_size,
        "order_disagreements": disagreements,
        "naive_unsound": unsound,
    }
