"""Workload ``offline_sweep``: the paper's offline path, no server.

Cold eager builds (optimizer sweep, archive store, contours) of seven
surfaces, then an exhaustive batched MSO/ASO sweep of PB, SB and AB on
each (Section 7 and Figs. 8-13): bulk optimizer throughput, contour
build and ``perf.batch`` dominate and ``serve`` is absent.  The lazy
phase then uses ``optimizer``/``ess`` the other way round - thousands of
single-point resolutions instead of one vectorised sweep - so a gain on
the bulk path that taxes point resolution, or the reverse, shows.

The work is fixed, not timed out: ``--seconds`` only selects the sizing
(full from 20 s up, about 25 s on the reference host; small below).
"""

from __future__ import annotations

import time

import numpy as np
from repro import AlignedBound, PlanBouquet, SpillBound
from repro.bench import workloads
from repro.core.mso import evaluate_algorithm
from repro.perf import cache as ess_cache

import ladder
import spans
from context import counter_delta, phase_delta_s, registry
from served import PROFILE
from stats import geomean, median

WHY = ("no server: cold eager builds and batched PB/SB/AB sweeps, then "
       "first-touch runs on lazy surfaces; optimizer, contours and "
       "perf.batch dominate, serve is absent")

#: Resolutions one step under the issue's list where a sweep or a
#: first-touch run alone took over 4 s; sized to fit the driver's time cap.
FULL = {
    "eager": (("3D_Q15", 32), ("4D_Q91", 16), ("4D_Q26", 14), ("5D_Q19", 7),
              ("5D_Q84", 8), ("6D_Q91", 5), ("6D_Q18", 4)),
    "lazy": (("4D_Q26", 20), ("5D_Q91", 8)),
    "build_passes": 3,
    "lazy_qas": 1,
    "loop_sample": 500,
}
QUICK = {
    "eager": (("3D_Q15", 12), ("4D_Q91", 8), ("5D_Q19", 5)),
    "lazy": (("4D_Q26", 10),),
    "build_passes": 2,
    "lazy_qas": 1,
    "loop_sample": 100,
}

#: Surface of the batch-vs-loop check and of the optimizer rungs.
REFERENCE = "4D_Q91"


def _algorithms(instance):
    return (("pb", PlanBouquet(instance.ess, instance.contours)),
            ("sb", SpillBound(instance.ess, instance.contours)),
            ("ab", AlignedBound(instance.ess, instance.contours)))


def _set_up(ctx, sizing):
    """A fresh cache directory, and every query parsed and gridded."""
    tmp = ctx.make_tmp()
    for name, resolution in sizing["eager"] + sizing["lazy"]:
        workloads.surface_key(name, profile=PROFILE, resolution=resolution)
    return tmp


def _build_phase(ctx, sizing, span):
    """Cold eager load of every surface, ``build_passes`` times over."""
    rates, instances = [], {}
    marks = None
    for _ in range(sizing["build_passes"]):
        ess_cache.clear()
        workloads.clear_cache()
        marks = registry()
        begin = time.perf_counter()
        for name, resolution in sizing["eager"]:
            with span("workloads.load", surface=f"{name}@{resolution}"):
                instances[name] = workloads.load(
                    name, profile=PROFILE, resolution=resolution,
                    ess_mode="eager")
        elapsed = time.perf_counter() - begin
        rates.append(sum(i.ess.grid.num_points for i in instances.values())
                     / elapsed)
    ctx.report.count(sizing["build_passes"] * len(sizing["eager"]), 0)
    after = registry()
    return {"instances": instances, "points_per_s": median(rates),
            "ess_build_s": phase_delta_s(marks, after, "ess_build"),
            "contour_build_s": phase_delta_s(marks, after, "contour_build")}


def _sweep_phase(ctx, instances, span):
    """Batched exhaustive sweep of PB, SB, AB over every surface."""
    marks = registry()
    seconds = {"pb": 0.0, "sb": 0.0, "ab": 0.0}
    asos, ratios = [], []
    locations = 0
    for name, instance in instances.items():
        for label, algorithm in _algorithms(instance):
            with span("perf.batch.sweep", surface=name, algorithm=label):
                begin = time.perf_counter()
                evaluation = evaluate_algorithm(algorithm, engine="batch")
                seconds[label] += time.perf_counter() - begin
            locations += evaluation.suboptimality.size
            asos.append(evaluation.aso)
            ratios.append(evaluation.mso / algorithm.mso_guarantee())
            ctx.report.check(f"MSO<=guarantee {name} {label}",
                             ratios[-1] <= 1.0 + 1e-9,
                             f"ratio {ratios[-1]!r}")
    after = registry()
    sweeps = counter_delta(marks, after, "batched_sweeps")
    return {"seconds": seconds,
            "locations_per_s": locations / sum(seconds.values()),
            "aso_geomean": geomean(asos), "ratio_max": max(ratios),
            "states_per_sweep":
                counter_delta(marks, after, "batched_sweep_states") / sweeps
                if sweeps else 0.0}


def _draw_qa(rng, grid):
    return tuple(float(np.exp(rng.uniform(np.log(v[0]), np.log(v[-1]))))
                 for v in grid.values)


def _lazy_phase(ctx, sizing, span):
    """First-touch SB run at the true location of each lazy surface,
    then a few seeded locations on the partly resolved surface."""
    marks = registry()
    first_s, later_ms = 0.0, []
    resolved = total = 0
    runs = {}
    for name, resolution in sizing["lazy"]:
        instance = workloads.load(name, profile=PROFILE,
                                  resolution=resolution, ess_mode="lazy")
        sb = SpillBound(instance.ess, instance.contours)
        rng = ctx.rng(f"lazy:{name}")
        qas = [instance.query.true_location()] + [
            _draw_qa(rng, instance.ess.grid)
            for _ in range(sizing["lazy_qas"])]
        results = []
        for index, qa in enumerate(qas):
            with span("core.run.lazy", surface=name, first=index == 0):
                begin = time.perf_counter()
                results.append(sb.run(qa, trace=True))
                elapsed = time.perf_counter() - begin
            if index == 0:
                first_s += elapsed
            else:
                later_ms.append(elapsed * 1000.0)
        runs[(name, resolution)] = (qas, results)
        resolved += instance.ess.num_resolved
        total += instance.ess.grid.num_points
    ctx.report.count(sum(len(q) for q, _ in runs.values()), 0)
    return {"first_run_s": first_s, "later_ms_p50": median(later_ms),
            "optimizer_calls":
                counter_delta(marks, registry(), "ess_optimizer_calls"),
            "resolved_fraction": resolved / total, "runs": runs}


def _check_lazy_vs_eager(ctx, lazy_runs):
    """Same sub-optimality from an eager surface, first lazy surface."""
    (name, resolution), (qas, results) = next(iter(lazy_runs.items()))
    eager = workloads.load(name, profile=PROFILE, resolution=resolution,
                           ess_mode="eager")
    sb = SpillBound(eager.ess, eager.contours)
    same = all(sb.run(qa, trace=True).suboptimality == result.suboptimality
               for qa, result in zip(qas, results))
    ctx.report.check(f"lazy==eager {name}@{resolution}", same)


def _check_batch_vs_loop(ctx, instance, sample_size, span):
    """Loop and batched sweeps agree exactly on a seeded sample."""
    rng = ctx.rng("loop-sample")
    points = sorted(rng.sample(range(instance.ess.grid.num_points),
                               sample_size))
    loop_s = batch_s = 0.0
    for label, algorithm in _algorithms(instance):
        with span("core.sweep.loop", algorithm=label):
            begin = time.perf_counter()
            loop = evaluate_algorithm(algorithm, points=points,
                                      engine="loop")
            loop_s += time.perf_counter() - begin
        with span("perf.batch.sweep.sample", algorithm=label):
            begin = time.perf_counter()
            batch = evaluate_algorithm(algorithm, points=points,
                                       engine="batch")
            batch_s += time.perf_counter() - begin
        ctx.report.check(
            f"batch==loop {label}",
            np.array_equal(loop.suboptimality, batch.suboptimality))
    return loop_s / batch_s


def _measure(ctx, sizing, recorder, checks):
    """The whole workload once on a fresh cache; its figures."""
    span = recorder.span
    workloads.clear_cache()
    with span("offline.build"):
        build = _build_phase(ctx, sizing, span)
    with span("offline.sweep"):
        sweep = _sweep_phase(ctx, build["instances"], span)
    with span("offline.lazy"):
        lazy = _lazy_phase(ctx, sizing, span)
    points = sum(i.ess.grid.num_points for i in build["instances"].values())
    out = {"build": build, "sweep": sweep, "lazy": lazy, "points": points,
           "build_ms": 1000.0 * points / build["points_per_s"],
           "total_s": points / build["points_per_s"]
           + sum(sweep["seconds"].values()) + lazy["first_run_s"]}
    if checks:
        out["speedup_vs_loop"] = _check_batch_vs_loop(
            ctx, build["instances"][REFERENCE], sizing["loop_sample"], span)
        _check_lazy_vs_eager(ctx, lazy["runs"])
    return out


def _put_end_to_end(report, done):
    report.put("build_points_per_s", done["build"]["points_per_s"], "pts/s")
    report.put("sweep_locations_per_s", done["sweep"]["locations_per_s"],
               "loc/s")
    report.put("lazy_first_run_s", done["lazy"]["first_run_s"], "s")
    report.put("aso_geomean", done["sweep"]["aso_geomean"], "ratio")
    report.put("mso_bound_ratio_max", done["sweep"]["ratio_max"], "ratio")
    report.put_roles(done["sweep"]["locations_per_s"],
                     done["lazy"]["first_run_s"] * 1000.0, done["build_ms"])


def _put_per_layer(report, done):
    build, sweep, lazy = done["build"], done["sweep"], done["lazy"]
    report.put("ess.build_s", build["ess_build_s"], "s")
    report.put("ess.contour_build_s", build["contour_build_s"], "s")
    for label, seconds in sweep["seconds"].items():
        report.put(f"perf.batch.sweep_s.{label}", seconds, "s")
    report.put("perf.batch.states_per_sweep", sweep["states_per_sweep"],
               "count")
    report.put("perf.batch.speedup_vs_loop", done["speedup_vs_loop"], "ratio")
    report.put("optimizer.lazy_calls", lazy["optimizer_calls"], "count")
    report.put("ess.lazy_resolved_fraction", lazy["resolved_fraction"],
               "ratio")
    report.put("core.lazy_later_run_ms_p50", lazy["later_ms_p50"], "ms")


def run(ctx):
    report = ctx.report
    sizing = QUICK if ctx.quick else FULL
    ctx.repeated_setup(lambda: _set_up(ctx, sizing), ctx.drop_tmp)
    if not ctx.traced:
        done = _measure(ctx, sizing, spans.OFF, checks=True)
    else:
        # Overhead from two passes of the small sizing; the per-layer
        # figures from one traced pass of the sizing asked for.
        plain = _measure(ctx, QUICK, spans.OFF, checks=False)
        traced = _measure(ctx, QUICK, ctx.recorder, checks=False)
        report.put("obs.bench_trace_overhead_pct",
                   100.0 * (traced["total_s"] - plain["total_s"])
                   / plain["total_s"], "%")
        done = _measure(ctx, sizing, ctx.recorder, checks=True)
        _put_per_layer(report, done)
        ladder.optimizer_path(ctx, done["build"]["instances"][REFERENCE])
    _put_end_to_end(report, done)
    ctx.put_peak_rss()
