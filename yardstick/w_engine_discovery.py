"""Workload ``engine_discovery``: real budgeted and spilled execution.

Generated data sets of about 200k rows; on each, the oracle's and the
native optimizer's plans run to completion and SpillBound and
AlignedBound discover the query's selectivities by actually executing
budgeted, spilled plans on the vector engine.  Only ``engine`` and
``catalog.datagen`` matter here; every other workload bypasses them.

The work is fixed, not timed out: ``--seconds`` only selects the sizing
(8 data sets x 2 algorithms x 3 timed repetitions from 20 s up, about
25 s on the reference host; 2 data sets below).
"""

from __future__ import annotations

import time

from repro import (AlignedBound, EngineDiscoveryDriver, SpillBound,
                   measured_location, native_run, oracle_run)
from repro.bench.wallclock import build_wallclock_setup

import spans
from context import counter_delta, registry
from stats import geomean, median, percentile, supported_tail

WHY = ("no server: SB/AB discovery by budgeted, spilled execution over "
       "generated data; only engine and catalog.datagen matter, every "
       "other workload bypasses them")

ROW_BUDGET = 200_000
RESOLUTION = 10
ENGINE = "vector"
REPETITIONS = 3
DATA_SETS_FULL, DATA_SETS_QUICK = 8, 2


def _generate(ctx, count):
    """The seeded data sets: each a schema, data, ESS and contours."""
    rng = ctx.rng("data")
    seeds = [rng.randrange(1 << 30) for _ in range(count)]
    return [build_wallclock_setup(row_budget=ROW_BUDGET, seed=seed,
                                  resolution=RESOLUTION) for seed in seeds]


def _discover(setup, algorithm_class, recorder):
    with recorder.span("engine.discovery",
                       algorithm=algorithm_class.__name__):
        begin = time.perf_counter()
        report = EngineDiscoveryDriver(
            algorithm_class(setup.ess, setup.contours), setup.generator,
            engine=ENGINE,
        ).run()
        return report, time.perf_counter() - begin


def _measure(ctx, setups, recorder, repetitions, checks):
    report = ctx.report
    span = recorder.span
    wall_ms, subopts, plan_ms = [], [], []
    steps = kills = charged = 0
    marks = registry()
    for number, setup in enumerate(setups):
        qa = measured_location(setup.generator, setup.query)
        with span("engine.execute_plan", plan="oracle"):
            begin = time.perf_counter()
            oracle = oracle_run(setup.ess, setup.generator, qa, engine=ENGINE)
            plan_ms.append((time.perf_counter() - begin) * 1000.0)
        with span("engine.execute_plan", plan="native"):
            begin = time.perf_counter()
            native = native_run(setup.ess, setup.generator, engine=ENGINE)
            plan_ms.append((time.perf_counter() - begin) * 1000.0)
        charged += oracle.cost_spent + native.cost_spent
        rows = {oracle.rows_out, native.rows_out}
        for algorithm_class in (SpillBound, AlignedBound):
            _discover(setup, algorithm_class, spans.OFF)  # warm-up pass
            for _ in range(repetitions):
                found, seconds = _discover(setup, algorithm_class, recorder)
                wall_ms.append(seconds * 1000.0)
                steps += found.num_steps
                kills += sum(1 for s in found.steps if not s.completed)
                charged += found.total_cost
            subopts.append(found.total_cost / oracle.cost_spent)
            rows.add(found.rows_out)
        report.count(2 + 2 * (1 + repetitions), 0)
        if checks:
            report.check(f"rows_match data set {number}", len(rows) == 1,
                         str(sorted(rows)))
    busy_s = (sum(wall_ms) + sum(plan_ms)) / 1000.0
    return {
        "wall_ms": wall_ms, "subopts": subopts,
        "plan_ms": median(plan_ms),
        "steps": steps / len(wall_ms), "kills": kills / len(wall_ms),
        "fallbacks": counter_delta(marks, registry(), "vector_fallback"),
        "charged_per_s": charged / busy_s,
    }


def _locate(setups, recorder):
    """Median time to measure a data set's true selectivities (the
    program memoizes them per data set, so only this first call pays)."""
    times = []
    for setup in setups:
        with recorder.span("engine.measured_location"):
            begin = time.perf_counter()
            measured_location(setup.generator, setup.query)
            times.append((time.perf_counter() - begin) * 1000.0)
    return median(times)


def _check_engines_agree(ctx, setup, recorder):
    """Vector and Volcano give the identical outcome on one data set;
    also the Volcano time of that plan, for reference."""
    qa = measured_location(setup.generator, setup.query)
    vector = oracle_run(setup.ess, setup.generator, qa, engine="vector")
    with recorder.span("engine.execute_plan", plan="oracle",
                       engine="volcano"):
        begin = time.perf_counter()
        volcano = oracle_run(setup.ess, setup.generator, qa,
                             engine="volcano")
        volcano_ms = (time.perf_counter() - begin) * 1000.0
    ctx.report.check("vector==volcano outcome", vector == volcano)
    return volcano_ms


def run(ctx):
    report = ctx.report
    count = DATA_SETS_QUICK if ctx.quick else DATA_SETS_FULL
    setups = ctx.repeated_setup(lambda: _generate(ctx, count),
                                lambda state: None)
    located_ms = _locate(setups, ctx.recorder)
    if ctx.traced:
        # Overhead from one repetition each way on the first two data
        # sets; the per-layer figures from the traced pass over all.
        plain = _measure(ctx, setups[:2], spans.OFF, 1, checks=False)
        traced = _measure(ctx, setups[:2], ctx.recorder, 1, checks=False)
        report.put("obs.bench_trace_overhead_pct",
                   100.0 * (median(traced["wall_ms"])
                            - median(plain["wall_ms"]))
                   / median(plain["wall_ms"]), "%")
    done = _measure(ctx, setups, ctx.recorder, REPETITIONS, checks=True)
    volcano_ms = _check_engines_agree(ctx, setups[0], ctx.recorder)

    wall = done["wall_ms"]
    tail = supported_tail(len(wall))
    report.put("discovery_wall_ms_p50", median(wall), "ms")
    report.put("discovery_wall_ms_tail", percentile(wall, tail), "ms")
    report.put("discovery_tail_percentile", tail, "pct")
    report.put("discovery_samples", len(wall), "count")
    report.put("engine_subopt_geomean", geomean(done["subopts"]), "ratio")
    report.put_roles(len(wall) / (sum(wall) / 1000.0), median(wall),
                     percentile(wall, tail))

    report.put("engine.datagen_s", report.value("setup.repeat_s"), "s")
    report.put("engine.execute_plan_ms.vector", done["plan_ms"], "ms")
    report.put("engine.execute_plan_ms.volcano", volcano_ms, "ms")
    report.put("engine.measured_location_ms", located_ms, "ms")
    report.put("engine.steps_per_discovery", done["steps"], "count")
    report.put("engine.budget_kills_per_discovery", done["kills"], "count")
    report.put("engine.vector_fallbacks", done["fallbacks"], "count")
    report.put("engine.charged_cost_per_s", done["charged_per_s"], "cost/s")
    ctx.put_peak_rss()
