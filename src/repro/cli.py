"""Command-line interface: ``python -m repro <command>``.

Gives the library's main flows a no-code entry point:

* ``list`` / ``describe`` — browse the benchmark workloads;
* ``guarantees`` — the closed-form bound table (any contour ratio);
* ``build`` — offline ESS construction, optionally persisted to .npz;
* ``run`` — one traced discovery run (pb / sb / ab / native);
* ``evaluate`` — exhaustive MSO/ASO over the ESS;
* ``experiment`` — regenerate a specific paper table/figure;
* ``wallclock`` — the Section 6.3 actual-execution experiment;
* ``advise`` — the native-vs-robust deployment advisor;
* ``check`` — the guarantee-conformance suite: seeded randomized
  workloads through every algorithm and sweep engine under runtime
  invariant monitors, exiting nonzero on any violation;
* ``arena`` — the head-to-head arena: the guaranteed algorithms vs
  the fixed-plan rivals over shared workloads, MSO and ASO per cell,
  with an optional MSO-vs-ASO scatter SVG;
* ``trace`` — one traced discovery run exported as a JSONL span trace
  plus the budget-waterfall HTML viewer;
* ``stats`` — the metrics registry as Prometheus text exposition;
* ``serve`` — the long-running concurrent discovery server (asyncio
  front-end, process-pool back-end, single-flight surface cache);
* ``loadgen`` — a closed-loop load generator against a running server,
  reporting p50/p90/p99 latency and rps.

``repro run`` and ``repro wallclock`` accept ``--trace-out`` to write
a JSONL span trace of the command; ``REPRO_TRACE=1`` (optionally with
``REPRO_TRACE_OUT``) enables tracing for any command.

Before any command runs, :func:`main` resolves every setting of
:mod:`repro.settings` once: a flag the command has wins over its
environment variable, and a malformed value of either exits 2 with an
``error:`` line naming its source.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager

from repro import settings
from repro.bench import harness, workloads
from repro.bench.report import format_histogram, format_table, format_value
from repro.core import bounds
from repro.core.aligned_bound import AlignedBound
from repro.core.mso import evaluate_algorithm
from repro.core.native import NativeOptimizer
from repro.core.plan_bouquet import PlanBouquet
from repro.core.spill_bound import SpillBound
from repro.engine.spill import ENGINES
from repro.errors import ReproError
from repro.prior import make_prior

_ALGORITHMS = {
    "pb": lambda inst, prior=None: PlanBouquet(inst.ess, inst.contours,
                                               prior=prior),
    "sb": lambda inst, prior=None: SpillBound(inst.ess, inst.contours,
                                              prior=prior),
    "ab": lambda inst, prior=None: AlignedBound(inst.ess, inst.contours,
                                                prior=prior),
}

_EXPERIMENTS = (
    "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
    "table2", "table3", "table4", "job", "lower-bound",
)


def _parse_qa(text):
    return tuple(float(part) for part in text.split(","))


def _resolution_arg(text):
    """Argparse type for ``--resolution``: an integer grid side >= 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid resolution must be an integer, got {text!r}"
        ) from None
    if value < 2:
        raise argparse.ArgumentTypeError(
            f"grid resolution must be >= 2, got {value}"
        )
    return value


#: Argument dests that name a file a command writes; :func:`main` checks
#: each given one with :func:`_validate_output_path` before the command
#: runs, so a bad destination fails at once with an ``error:`` line
#: instead of as an :class:`OSError` traceback after the work.
_OUTPUT_FILE_DESTS = ("trace_out", "json", "svg", "jsonl", "save")


def _validate_output_path(path, flag):
    """A usable output file path for ``flag``, or :class:`ReproError`.

    Creates missing parent directories; every message names the flag.
    """
    if os.path.isdir(path):
        raise ReproError(f"{flag} {path!r} is a directory; give a file path")
    directory = os.path.dirname(path) or "."
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise ReproError(
            f"cannot create {flag} directory {directory!r}: {exc}"
        ) from None
    if not os.access(directory, os.W_OK):
        raise ReproError(f"{flag} directory {directory!r} is not writable")
    if os.path.exists(path) and not os.access(path, os.W_OK):
        raise ReproError(f"{flag} {path!r} exists and is not writable")


@contextmanager
def _trace_to(path):
    """Scope a fresh tracer over a command, flushing JSONL to ``path``.

    With a falsy path this is a no-op (tracing stays however the
    environment configured it).
    """
    if not path:
        yield None
        return
    from repro.obs.export import write_trace_jsonl
    from repro.obs.trace import Tracer, install_tracer

    tracer = Tracer()
    previous = install_tracer(tracer)
    try:
        yield tracer
    finally:
        install_tracer(previous)
        write_trace_jsonl(tracer, path)
        print(f"wrote {path}")


def cmd_list(args):
    print("TPC-DS evaluation suite:")
    for name in workloads.evaluation_suite():
        print(f"  {name}")
    print("Q91 dimensionality variants: 2D_Q91 3D_Q91 5D_Q91")
    print("JOB: 2D_JOB1a 3D_JOB1a 4D_JOB1a")
    return 0


def cmd_describe(args):
    instance = workloads.load(args.query, profile=args.profile)
    print(instance.query.describe())
    ess, contours = instance.ess, instance.contours
    print(f"\nESS grid {ess.grid.shape} ({ess.grid.num_points} locations)")
    print(f"POSP size {ess.posp_size}, cost span "
          f"[{ess.min_cost:.4g}, {ess.max_cost:.4g}]")
    print(f"{contours.num_contours} contours at ratio "
          f"{contours.cost_ratio}, max density rho = {contours.max_density}")
    return 0


def cmd_guarantees(args):
    rows = bounds.guarantee_table(ratio=args.ratio)
    print(format_table(
        f"MSO guarantees at contour ratio {args.ratio}",
        ["D", "PB (rho=3)", "SB", "SB @ ideal ratio", "ideal ratio",
         "AB aligned", "lower bound"],
        [[r["D"], r["pb"], r["sb"], r["sb_at_ideal_ratio"],
          r["ideal_ratio"], r["ab_aligned"], r["lower_bound"]]
         for r in rows],
    ))
    return 0


def cmd_build(args):
    instance = workloads.load(args.query, profile=args.profile)
    print(f"built ESS for {args.query}: {instance.ess}")
    if args.save:
        from repro.ess.persistence import save_ess

        save_ess(instance.ess, args.save)
        print(f"saved to {args.save}")
    return 0


def _record_history(instance, qa, prior_kind):
    """Persist a completed discovery's actual selectivities.

    Feeds the :class:`~repro.prior.HistoryPrior` sidecar so repeated
    workloads start future ladders near where past queries landed.
    Recording happens when the run itself used the history prior or
    when ``REPRO_PRIOR_STORE`` names an explicit store; it is
    best-effort — a read-only store never fails the discovery.
    """
    if prior_kind != "history" and settings.get("REPRO_PRIOR_STORE") is None:
        return
    from repro.prior import HistoryStore, history_key

    store = HistoryStore()
    try:
        store.record(history_key(instance.query, instance.ess),
                     tuple(float(v) for v in qa))
    except OSError:
        pass
    finally:
        store.close()


def cmd_run(args):
    prior_kind = args.prior
    instance = workloads.load(args.query, profile=args.profile,
                              ess_mode=args.ess)
    qa = _parse_qa(args.qa) if args.qa else instance.query.true_location()
    if args.algorithm == "native":
        algorithm = NativeOptimizer(instance.ess)
    else:
        prior = make_prior(prior_kind, instance.query, instance.ess)
        algorithm = _ALGORITHMS[args.algorithm](instance, prior=prior)
    with _trace_to(args.trace_out):
        if args.trace_out:
            from repro.obs.runtrace import traced_run

            result, _ = traced_run(algorithm, qa, name=args.algorithm)
        else:
            result = algorithm.run(qa, trace=True)
    if args.algorithm != "native":
        _record_history(instance, qa, prior_kind)
    print(f"{args.algorithm} on {args.query} at qa={qa}")
    rows = []
    for record in result.executions:
        rows.append([
            record.contour, record.mode,
            "-" if record.spill_dim is None else f"e{record.spill_dim + 1}",
            record.plan_id, format_value(record.budget),
            format_value(record.charged),
            "yes" if record.completed else "no",
        ])
    print(format_table(
        "execution sequence",
        ["IC", "mode", "epp", "plan", "budget", "charged", "done"],
        rows,
    ))
    print(f"sub-optimality: {result.suboptimality:.2f}")
    return 0


def cmd_evaluate(args):
    prior_kind = args.prior
    instance = workloads.load(args.query, profile=args.profile)
    prior = make_prior(prior_kind, instance.query, instance.ess)
    rows = []
    for key in args.algorithms.split(","):
        factory = _ALGORITHMS.get(key.strip())
        if factory is None:
            raise ReproError(
                f"unknown algorithm {key.strip()!r}; "
                f"choose from {', '.join(_ALGORITHMS)}"
            )
        algorithm = factory(instance, prior=prior)
        evaluation = evaluate_algorithm(algorithm)
        guarantee = algorithm.mso_guarantee()
        rows.append([key.strip(), evaluation.mso, evaluation.aso, guarantee])
    print(format_table(
        f"exhaustive evaluation of {args.query} "
        f"({instance.ess.grid.num_points} locations, "
        f"{prior_kind} prior)",
        ["algorithm", "MSOe", "ASO", "guarantee"],
        rows,
    ))
    return 0


def cmd_experiment(args):
    name = args.name
    if name == "fig7":
        data = harness.run_fig7(profile=args.profile)
        print(format_table(
            f"Figure 7 trace (sub-optimality {data['suboptimality']:.2f})",
            ["IC", "mode", "plan", "qrun"],
            [[r["contour"], r["mode"], r["plan"], str(r["qrun"])]
             for r in data["rows"]],
        ))
    elif name == "fig8":
        rows = harness.run_fig8(profile=args.profile)
        print(format_table("Figure 8", ["query", "D", "PB MSOg", "SB MSOg"],
                           [[r["query"], r["D"], r["pb_msog"], r["sb_msog"]]
                            for r in rows]))
    elif name == "fig9":
        rows = harness.run_fig9(profile=args.profile)
        print(format_table("Figure 9", ["D", "PB MSOg", "SB MSOg"],
                           [[r["D"], r["pb_msog"], r["sb_msog"]]
                            for r in rows]))
    elif name == "fig10":
        rows = harness.run_fig10(profile=args.profile)
        print(format_table("Figure 10", ["query", "PB MSOe", "SB MSOe"],
                           [[r["query"], r["pb_msoe"], r["sb_msoe"]]
                            for r in rows]))
    elif name == "fig11":
        rows = harness.run_fig11(profile=args.profile)
        print(format_table("Figure 11", ["query", "PB ASO", "SB ASO"],
                           [[r["query"], r["pb_aso"], r["sb_aso"]]
                            for r in rows]))
    elif name == "fig12":
        data = harness.run_fig12(profile=args.profile)
        for key in ("pb", "sb"):
            edges, fractions = data[key]
            print(format_histogram(f"Figure 12 ({key})", edges, fractions))
    elif name == "fig13":
        rows = harness.run_fig13(profile=args.profile)
        print(format_table("Figure 13", ["query", "SB MSOe", "AB MSOe"],
                           [[r["query"], r["sb_msoe"], r["ab_msoe"]]
                            for r in rows]))
    elif name == "table2":
        rows = harness.run_table2(profile=args.profile)
        print(format_table(
            "Table 2",
            ["query", "original %", "<=1.2", "<=1.5", "<=2.0", "max"],
            [[r["query"], r["original_pct"], r["pct_at_1.2"],
              r["pct_at_1.5"], r["pct_at_2.0"], r["max_penalty"]]
             for r in rows]))
    elif name == "table3":
        data = harness.run_table3(profile=args.profile)
        print(format_table(
            f"Table 3 (sub-optimality {data['suboptimality']:.2f})",
            ["IC", "epp", "plan", "learned", "cumulative"],
            [[r["contour"], r["epp"], r["plan"], r["learned_sel"],
              r["cumulative_cost"]] for r in data["rows"]]))
    elif name == "table4":
        rows = harness.run_table4(profile=args.profile)
        print(format_table("Table 4", ["query", "max penalty"],
                           [[r["query"], r["max_penalty"]] for r in rows]))
    elif name == "job":
        data = harness.run_job(profile=args.profile)
        print(format_table("JOB 1a", ["metric", "value"],
                           [[k, v] for k, v in data.items() if k != "query"]))
    elif name == "lower-bound":
        rows = harness.run_lower_bound()
        print(format_table("Theorem 4.6", ["D", "measured MSO"],
                           [[r["D"], r["measured_mso"]] for r in rows]))
    return 0


def cmd_wallclock(args):
    engine = args.engine
    if engine not in ENGINES:
        raise ReproError(f"unknown --engine {engine!r}; "
                         f"choose from {', '.join(ENGINES)}")
    with _trace_to(args.trace_out):
        result = harness.run_wallclock(row_budget=args.rows, seed=args.seed,
                                       engine=engine,
                                       resolution=args.resolution)
    print(format_table(
        f"Section 6.3: engine-measured costs ({engine})",
        ["strategy", "cost", "vs oracle"],
        [["oracle", result["oracle_cost"], 1.0],
         ["native", result["native_cost"], result["native_subopt"]],
         ["SpillBound", result["sb_cost"], result["sb_subopt"]],
         ["AlignedBound", result["ab_cost"], result["ab_subopt"]]],
    ))
    return 0


def cmd_figures(args):
    from repro.bench.figures import render_all_figures

    paths = render_all_figures(args.outdir, profile=args.profile)
    for path in paths:
        print(path)
    return 0


def cmd_check(args):
    from repro.conformance.suite import INJECT_MODES, SUITE_ENGINES

    engines = tuple(e.strip() for e in args.engines.split(",") if e.strip())
    unknown = set(engines) - set(SUITE_ENGINES)
    if unknown:
        print(f"error: unknown engine(s) {sorted(unknown)}; "
              f"choose from {SUITE_ENGINES}", file=sys.stderr)
        return 2
    if args.inject is not None and args.inject not in INJECT_MODES:
        print(f"error: unknown injection {args.inject!r}; "
              f"choose from {INJECT_MODES}", file=sys.stderr)
        return 2

    def progress(done, total, outcome):
        if args.verbose:
            print(f"[{done}/{total}] seed {outcome.seed}: "
                  f"D={outcome.num_epps} res={outcome.resolution} "
                  f"ratio={outcome.cost_ratio} noise={outcome.cost_noise} "
                  f"align={outcome.alignment_fraction:.2f} "
                  f"{outcome.engines}")

    prior_kind = args.prior
    report = harness.run_conformance(
        num_workloads=args.workloads,
        base_seed=args.base_seed,
        engines=engines,
        trace_samples=args.trace_samples,
        jsonl_path=args.jsonl,
        use_cache=not args.no_cache,
        inject=args.inject,
        progress=progress,
        ess_mode=args.ess,
        prior=None if prior_kind == "uniform" else prior_kind,
    )
    summary = report.summary()
    print(format_table(
        f"conformance suite ({summary['workloads']} workloads x pb/sb/ab, "
        f"{prior_kind} prior)",
        ["metric", "value"],
        [[key, value] for key, value in summary.items()],
    ))
    for violation in report.monitor.violations[:20]:
        print(f"VIOLATION [{violation.invariant}] "
              f"{violation.algorithm}/{violation.engine}: "
              f"{violation.message} {violation.details}")
    remaining = len(report.monitor.violations) - 20
    if remaining > 0:
        print(f"... and {remaining} more")
    if args.jsonl:
        print(f"wrote {args.jsonl}")
    if not report.ok:
        print(f"conformance FAILED: {summary['violations']} violation(s)")
        return 1
    print("conformance ok: zero violations, zero bit-identity mismatches")
    return 0


def cmd_arena(args):
    import json

    from repro.arena.profiles import PROFILE_KINDS, ErrorProfile
    from repro.arena.report import ARENA_ALGORITHMS, run_arena
    from repro.conformance.workloads import WORKLOAD_FAMILIES

    if args.family not in WORKLOAD_FAMILIES:
        print(f"error: unknown workload family {args.family!r}; "
              f"choose from {WORKLOAD_FAMILIES}", file=sys.stderr)
        return 2
    names = None
    if args.algorithms:
        names = tuple(a.strip() for a in args.algorithms.split(",")
                      if a.strip())
    if args.profile_kind not in PROFILE_KINDS:
        print(f"error: unknown error-profile kind "
              f"{args.profile_kind!r}; choose from {PROFILE_KINDS}",
              file=sys.stderr)
        return 2
    profile = ErrorProfile(width=args.profile_width,
                           spread=args.profile_spread,
                           kind=args.profile_kind)
    report = run_arena(
        num_workloads=args.workloads,
        base_seed=args.base_seed,
        family=args.family,
        algorithms=names,
        profile=profile,
        engine=args.engine,
        use_cache=not args.no_cache,
    )
    aggregates = report.by_algorithm()
    print(format_table(
        f"arena ({report.num_workloads} {report.family} workloads, "
        f"profile {profile.spec()})",
        ["algorithm", "worst MSO", "mean MSO", "mean ASO", "worst ASO"],
        [[name, agg["worst_mso"], agg["mean_mso"], agg["mean_aso"],
          agg["worst_aso"]] for name, agg in aggregates.items()],
    ))
    guaranteed = [name for name in report.algorithms
                  if name in ARENA_ALGORITHMS[:3]]
    if guaranteed:
        print(f"guaranteed: {', '.join(guaranteed)} "
              f"(bounds monitored; {report.num_violations} violation(s))")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.to_payload(), fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    if args.svg:
        from repro.bench.svgfig import save_svg, scatter_chart

        save_svg(args.svg, scatter_chart(
            "MSO vs ASO, head to head",
            report.scatter_series(),
            x_label="ASO (mean sub-optimality)",
            y_label="MSO",
            subtitle=f"{report.num_workloads} shared {report.family} "
                     "workloads, one point per (workload, algorithm)",
        ))
        print(f"wrote {args.svg}")
    if report.num_violations:
        print(f"arena FAILED: {report.num_violations} conformance "
              "violation(s)")
        return 1
    return 0


#: ``repro trace`` export formats.
TRACE_FORMATS = ("all", "jsonl", "html")

#: ``repro stats`` export formats.
STATS_FORMATS = ("prom", "json")


def _cmd_trace_from_jsonl(args, out):
    """Render an existing (possibly multi-process) JSONL trace: the
    merged tree as text, plus the wall-clock timeline HTML."""
    from repro.obs.export import read_trace_jsonl, render_trace_tree
    from repro.obs.waterfall import write_trace_html

    try:
        meta, spans = read_trace_jsonl(args.from_jsonl)
    except (OSError, ValueError) as exc:
        raise ReproError(
            f"cannot read trace {args.from_jsonl!r}: {exc}"
        ) from None
    if not spans:
        raise ReproError(f"trace {args.from_jsonl!r} holds no spans")
    print(render_trace_tree(meta or {}, spans))
    if args.format in ("all", "html"):
        trace_id = (meta or {}).get("trace_id", "trace")
        path = write_trace_html(
            os.path.join(out, f"{trace_id}.timeline.html"),
            meta or {}, spans,
            title=f"trace {trace_id}",
        )
        print(f"wrote {path}")
    return 0


def cmd_trace(args):
    from repro.obs.export import write_trace_jsonl
    from repro.obs.runtrace import traced_run
    from repro.obs.trace import Tracer, install_tracer
    from repro.obs.waterfall import write_waterfall_html

    if args.format not in TRACE_FORMATS:
        raise ReproError(
            f"unknown export format {args.format!r}; "
            f"choose from {TRACE_FORMATS}"
        )
    out = args.out
    if os.path.isfile(out):
        raise ReproError(f"--out {out!r} exists and is not a directory")
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ReproError(
            f"cannot create output directory {out!r}: {exc}"
        ) from None
    if args.from_jsonl:
        return _cmd_trace_from_jsonl(args, out)
    if not args.query:
        raise ReproError("give --query to trace a run, or --from-jsonl "
                         "to render an existing trace file")

    instance = workloads.load(args.query, profile=args.profile)
    qa = _parse_qa(args.qa) if args.qa else instance.query.true_location()
    if args.algorithm == "native":
        algorithm = NativeOptimizer(instance.ess)
    else:
        algorithm = _ALGORITHMS[args.algorithm](instance)
    tracer = Tracer()
    previous = install_tracer(tracer)
    try:
        result, rows = traced_run(algorithm, qa, name=args.algorithm)
    finally:
        install_tracer(previous)

    print(f"{args.algorithm} on {args.query}: "
          f"{result.num_executions} executions over "
          f"{result.contours_visited} contours, "
          f"sub-optimality {result.suboptimality:.2f}")
    base = os.path.join(out, f"{args.query}_{args.algorithm}")
    if args.format in ("all", "jsonl"):
        path = write_trace_jsonl(tracer, f"{base}.trace.jsonl")
        print(f"wrote {path}")
    if args.format in ("all", "html"):
        meta = {
            "query": args.query,
            "algorithm": args.algorithm,
            "qa": ",".join(f"{v:.4g}" for v in qa),
            "suboptimality": result.suboptimality,
            "total_cost": result.total_cost,
            "optimal_cost": result.optimal_cost,
            "executions": result.num_executions,
            "contours_visited": result.contours_visited,
        }
        path = write_waterfall_html(
            f"{base}.waterfall.html", rows, meta=meta,
            title=f"budget waterfall: {args.algorithm} on {args.query}",
        )
        print(f"wrote {path}")
    return 0


def cmd_stats(args):
    from repro.obs.export import prometheus_text
    from repro.obs.metrics import REGISTRY

    if args.format not in STATS_FORMATS:
        raise ReproError(
            f"unknown export format {args.format!r}; "
            f"choose from {STATS_FORMATS}"
        )
    if args.query:
        from repro.obs.runtrace import traced_run

        instance = workloads.load(args.query, profile=args.profile)
        algorithm = _ALGORITHMS[args.algorithm](instance)
        traced_run(algorithm, instance.query.true_location(),
                   name=args.algorithm)
    if args.format == "json":
        import json

        print(json.dumps(REGISTRY.summary(), indent=2, sort_keys=True))
    else:
        sys.stdout.write(prometheus_text(REGISTRY))
    return 0


def cmd_serve(args):
    import asyncio

    from repro.serve.server import ServeConfig, serve_forever

    config = ServeConfig.from_env(
        host=args.host, port=args.port, workers=args.workers,
        queue_limit=args.queue, tenant_quota=args.quota,
        cache_mb=args.cache_mb, profile=args.profile, ess_mode=args.ess,
        prior=args.prior,
        conformance=args.conformance, drain_timeout_s=args.drain_timeout,
        trace_every=args.trace_every, trace_dir=args.trace_dir,
        audit_path=args.audit, audit_threshold_s=args.audit_threshold,
        audit_every=args.audit_sample,
    )
    return asyncio.run(serve_forever(config))


def cmd_loadgen(args):
    from repro.serve.loadgen import run_loadgen

    queries = [q.strip() for q in args.queries.split(",") if q.strip()]
    if not queries:
        raise ReproError("--queries must name at least one workload")
    tenants = [f"tenant-{i}" for i in range(max(1, args.tenants))]
    summary = run_loadgen(
        args.host, args.port, queries=queries, total=args.requests,
        concurrency=args.concurrency, algorithm=args.algorithm,
        kind=args.kind, tenants=tenants, sleep_s=args.sleep,
        trace_every=args.trace_every,
    )
    summary.pop("records", None)
    latency = summary["latency_s"]
    print(format_table(
        f"loadgen: {summary['requests']} requests x{args.concurrency} "
        f"against {args.host}:{args.port}",
        ["metric", "value"],
        [["rps", f"{summary['rps']:.1f}"],
         ["p50 latency", f"{latency['p50'] * 1000:.1f} ms"],
         ["p90 latency", f"{latency['p90'] * 1000:.1f} ms"],
         ["p99 latency", f"{latency['p99'] * 1000:.1f} ms"],
         ["max latency", f"{latency['max'] * 1000:.1f} ms"],
         ["traced", str(summary["traced"])],
         ["outcomes", str(summary["outcomes"])],
         ["status codes", str(summary["status_codes"])]],
    ))
    if args.json:
        import json as json_module

        with open(args.json, "w", encoding="utf-8") as handle:
            json_module.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0 if summary["outcomes"].get("ok", 0) > 0 else 1


def cmd_advise(args):
    from repro.core.advisor import RobustnessAdvisor

    instance = workloads.load(args.query, profile=args.profile)
    advisor = RobustnessAdvisor(instance.ess)
    estimate = (_parse_qa(args.estimate) if args.estimate
                else instance.ess.grid.origin)
    advice = advisor.advise(estimate, args.radius)
    verdict = "robust discovery" if advice.use_robust else "native optimizer"
    print(f"recommendation for {args.query}: {verdict}")
    print(f"  {advice.reason}")
    return 0


def _add_prior_arg(parser):
    """``--prior uniform|sampled|history``, backing ``REPRO_PRIOR``."""
    parser.add_argument("--prior", default=None, metavar="KIND",
                        help="selectivity prior guiding contour "
                        "scheduling: uniform (exact no-op), sampled "
                        "(catalog sampling) or history (observed "
                        "outcomes); default from REPRO_PRIOR, else "
                        "uniform")


def _add_ess_arg(parser):
    """``--ess eager|lazy``, backing ``REPRO_ESS``."""
    parser.add_argument("--ess", default=None, metavar="MODE",
                        help="ESS surface mode: eager (full optimizer "
                        "sweep) or lazy (resolve on demand); default "
                        "from REPRO_ESS, else eager")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Platform-independent robust query processing",
    )
    parser.add_argument("--profile", default=None,
                        help="grid-resolution profile: smoke, bench or "
                        "paper; default from REPRO_PROFILE, else bench")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workload queries")

    p = sub.add_parser("describe", help="describe a workload query")
    p.add_argument("query")

    p = sub.add_parser("guarantees", help="closed-form bound table")
    p.add_argument("--ratio", type=float, default=2.0)

    p = sub.add_parser("build", help="build (and optionally save) an ESS")
    p.add_argument("query")
    p.add_argument("--save", default=None,
                   help="write the ESS archive (.npz plus two .npy sidecars)")

    p = sub.add_parser("run", help="one traced discovery run")
    p.add_argument("query")
    p.add_argument("--algorithm", default="sb",
                   choices=["pb", "sb", "ab", "native"])
    p.add_argument("--qa", default=None,
                   help="comma-separated actual selectivities")
    p.add_argument("--trace-out", default=None,
                   help="write a JSONL span trace of the run to this file")
    _add_ess_arg(p)
    _add_prior_arg(p)

    p = sub.add_parser("evaluate", help="exhaustive MSO/ASO evaluation")
    p.add_argument("query")
    p.add_argument("--algorithms", default="pb,sb,ab")
    _add_prior_arg(p)

    p = sub.add_parser("experiment", help="regenerate a paper artifact")
    p.add_argument("name", choices=_EXPERIMENTS)

    p = sub.add_parser("wallclock", help="the actual-execution experiment")
    p.add_argument("--rows", type=int, default=40_000)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--engine", default="vector", metavar="ENGINE",
                   help="execution engine for every plan run: vector "
                   "or volcano (the row-at-a-time reference)")
    p.add_argument("--resolution", type=_resolution_arg, default=None,
                   help="explicit grid resolution for the workload")
    p.add_argument("--trace-out", default=None,
                   help="write a JSONL span trace of the run to this file")

    p = sub.add_parser("trace", help="trace one discovery run "
                       "(JSONL + budget-waterfall HTML), or render an "
                       "existing JSONL trace with --from-jsonl")
    p.add_argument("--query", default=None)
    p.add_argument("--from-jsonl", default=None, metavar="PATH",
                   help="render an existing JSONL trace (e.g. one the "
                   "server spooled): merged multi-process tree as text "
                   "plus a wall-clock timeline HTML")
    p.add_argument("--algorithm", default="sb",
                   choices=["pb", "sb", "ab", "native"])
    p.add_argument("--qa", default=None,
                   help="comma-separated actual selectivities")
    p.add_argument("--out", default="trace",
                   help="output directory for the artifacts")
    p.add_argument("--format", default="all",
                   help="artifacts to emit: all, jsonl or html")

    p = sub.add_parser("stats", help="export the metrics registry "
                       "(Prometheus text exposition)")
    p.add_argument("--query", default=None,
                   help="first run one discovery on this workload "
                   "so the registry has run-level series")
    p.add_argument("--algorithm", default="sb", choices=["pb", "sb", "ab"])
    p.add_argument("--format", default="prom",
                   help="output format: prom or json")

    p = sub.add_parser("figures", help="render all figures as SVG")
    p.add_argument("--outdir", default="results/figures")

    p = sub.add_parser("check", help="guarantee-conformance suite")
    p.add_argument("--workloads", type=int, default=200,
                   help="number of seeded randomized workloads")
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--engines", default="loop,batch,parallel",
                   help="comma-separated sweep engines to exercise")
    p.add_argument("--trace-samples", type=int, default=3,
                   help="traced scalar runs per (workload, algorithm)")
    p.add_argument("--jsonl", default=None,
                   help="write violation records to this JSONL path")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the persistent ESS archive cache")
    p.add_argument("--inject", default=None, choices=["mso", "learning"],
                   help="inject a deliberate violation (negative test)")
    p.add_argument("--verbose", action="store_true",
                   help="print one line per workload")
    _add_ess_arg(p)
    _add_prior_arg(p)

    p = sub.add_parser("arena", help="head-to-head algorithm arena "
                       "(guaranteed algorithms vs fixed-plan rivals)")
    p.add_argument("--workloads", type=int, default=20,
                   help="number of shared seeded workloads")
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--family", default="random",
                   help="workload family: random or adversarial")
    p.add_argument("--algorithms", default=None,
                   help="comma-separated lineup override "
                   "(pb,sb,ab,penalty,regret,sampling)")
    p.add_argument("--engine", default="auto",
                   choices=["auto", "batch", "parallel", "loop"],
                   help="sweep engine for the exhaustive evaluations")
    p.add_argument("--profile-width", type=int, default=2,
                   help="error-profile half-width in grid steps")
    p.add_argument("--profile-spread", type=float, default=1.0,
                   help="error-profile spread (gaussian sigma)")
    p.add_argument("--profile-kind", default="gaussian",
                   help="error-profile kind: gaussian or uniform")
    p.add_argument("--json", default=None,
                   help="write the arena payload to this path")
    p.add_argument("--svg", default=None,
                   help="write the MSO-vs-ASO scatter to this path")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the persistent ESS archive cache")

    p = sub.add_parser("serve", help="run the concurrent discovery server")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642)
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool size (default REPRO_SERVE_WORKERS)")
    p.add_argument("--queue", type=int, default=None,
                   help="admitted-but-not-running request ceiling "
                   "(default REPRO_SERVE_QUEUE)")
    p.add_argument("--quota", type=int, default=None,
                   help="per-tenant in-flight ceiling "
                   "(default REPRO_SERVE_QUOTA)")
    p.add_argument("--cache-mb", type=int, default=None,
                   help="accepted and validated, but the surface tier "
                   "no longer evicts (default REPRO_SERVE_CACHE_MB)")
    p.add_argument("--conformance", action="store_true",
                   help="check every request's result with the conformance "
                   "monitor")
    p.add_argument("--drain-timeout", type=float, default=10.0,
                   help="seconds to wait for in-flight requests on drain")
    p.add_argument("--trace-every", type=int, default=None,
                   help="trace every Nth request (0 disables; default "
                   "REPRO_SERVE_TRACE); per-request 'trace' fields "
                   "override the sampling")
    p.add_argument("--trace-dir", default=None,
                   help="spool each traced request's merged JSONL trace "
                   "into this directory (default REPRO_SERVE_TRACE_DIR)")
    p.add_argument("--audit", default=None, metavar="PATH",
                   help="append slow/sampled request records to this "
                   "JSONL audit log (default REPRO_SERVE_AUDIT)")
    p.add_argument("--audit-threshold", type=float, default=None,
                   help="seconds beyond which a request is audited as "
                   "slow (default REPRO_SERVE_AUDIT_THRESHOLD_S, 1.0)")
    p.add_argument("--audit-sample", type=int, default=None,
                   help="also audit every Nth request (0 disables; "
                   "default REPRO_SERVE_AUDIT_SAMPLE)")
    _add_ess_arg(p)
    _add_prior_arg(p)

    p = sub.add_parser("loadgen", help="closed-loop load generator "
                       "against a running discovery server")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642)
    p.add_argument("--queries", default="2D_Q91,3D_Q91",
                   help="comma-separated workloads to round-robin over")
    p.add_argument("--requests", type=int, default=64,
                   help="total requests to complete")
    p.add_argument("--concurrency", type=int, default=8,
                   help="concurrent client connections")
    p.add_argument("--tenants", type=int, default=4,
                   help="tenant identities to round-robin over")
    p.add_argument("--algorithm", default="sb",
                   choices=["pb", "sb", "ab", "native"])
    p.add_argument("--kind", default="run", choices=["run", "evaluate"])
    p.add_argument("--sleep", type=float, default=0.0,
                   help="synthetic per-request service seconds")
    p.add_argument("--trace-every", type=int, default=0,
                   help="force tracing on every Nth request "
                   "(0: defer to the server's sampling policy)")
    p.add_argument("--json", default=None,
                   help="write the latency summary to this path")

    p = sub.add_parser("advise", help="native vs robust recommendation")
    p.add_argument("query")
    p.add_argument("--radius", type=float, default=10.0,
                   help="anticipated multiplicative estimation error")
    p.add_argument("--estimate", default=None,
                   help="comma-separated estimated selectivities")
    return parser


_HANDLERS = {
    "list": cmd_list,
    "describe": cmd_describe,
    "guarantees": cmd_guarantees,
    "build": cmd_build,
    "run": cmd_run,
    "evaluate": cmd_evaluate,
    "experiment": cmd_experiment,
    "wallclock": cmd_wallclock,
    "trace": cmd_trace,
    "stats": cmd_stats,
    "figures": cmd_figures,
    "advise": cmd_advise,
    "check": cmd_check,
    "arena": cmd_arena,
    "serve": cmd_serve,
    "loadgen": cmd_loadgen,
}


def _resolve_settings(args):
    """Resolve every setting before the command runs.

    A flag the command has is replaced by its resolved value (flag,
    else environment, else default); every other setting is resolved
    from the environment alone, so a malformed export fails here, not
    midway through the work.
    """
    for setting in settings.SETTINGS.values():
        dest = (setting.flag or "").lstrip("-").replace("-", "_")
        if dest and hasattr(args, dest):
            setattr(args, dest, settings.get(setting.name,
                                             getattr(args, dest)))
        else:
            settings.get(setting.name)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _resolve_settings(args)
        for dest in _OUTPUT_FILE_DESTS:
            path = getattr(args, dest, None)
            if path:
                _validate_output_path(path, "--" + dest.replace("_", "-"))
        try:
            return _HANDLERS[args.command](args)
        finally:
            # REPRO_TRACE=1 + REPRO_TRACE_OUT=<path> without any flag.
            from repro.obs.trace import flush_env_tracer

            flush_env_tracer()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
