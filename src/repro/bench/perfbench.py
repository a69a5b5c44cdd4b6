"""The perf-trajectory benchmark: ``repro bench --json BENCH_pr2.json``.

Measures the performance layer end to end and writes a JSON artifact so
every PR can append a comparable data point:

* **cache** — cold ESS build (optimizer sweep + archive store) vs warm
  load (persistent-archive hit) for one workload, with an equivalence
  check (optimal costs, plan ids and plan keys must round-trip
  bit-identically);
* **sweeps** — the per-location reference loop vs the frontier-batched
  engine for PB/SB/AB exhaustive evaluation, timed best-of-N on fresh
  instances (cold memo caches both sides), with a bit-identity check
  (``np.array_equal``, not a tolerance) between the two paths;
* **parallel** — the multiprocess fan-out *decision* and, only when the
  cost guard lets fan-out proceed, its timings.  On hosts where the
  guard keeps the sweep serial (single CPU, small sweep) the artifact
  records the skip and its reason rather than a meaningless 1x;
* **wallclock** — the Section 6.3 actual-execution experiment on the
  Volcano interpreter vs the columnar vector engine
  (:mod:`repro.engine.vector`), best-of-N on one shared setup, with an
  identity flag asserting both engines produced bit-identical results
  (costs via ``repr`` so NaNs and the last float bit both count);
* **tracing** — the same batched sweep with span tracing off vs on
  (the observability layer's overhead budget is <2% when disabled and
  bit-identical results always), see :mod:`repro.obs.trace`;
* **serving** — a mixed-tenant closed-loop burst against the in-process
  discovery server: latency percentiles, rps, the single-flight proof
  and a served-vs-solo bit-identity check
  (:func:`repro.serve.loadgen.bench_serving`);
* **arena** — the head-to-head arena: guaranteed algorithms vs the
  fixed-plan rivals over shared seeded workloads, MSO/ASO per cell and
  a conformance verdict (see :mod:`repro.arena.report`);
* **observability** — end-to-end request tracing economics: paired
  tracing-off/on serving bursts (median p50 overhead, budget < 2%),
  served bit-identity traced vs untraced vs solo, and the merged
  multi-process trace proof
  (:func:`repro.serve.loadgen.bench_observability`);
* **timers** — the process-global phase profile (ess_build / contour /
  sweep timings, cache hit counters) accumulated while benchmarking.

The artifact records the visible CPU count: on single-core containers
the multiprocess sweep cannot beat serial, and the JSON says so rather
than hiding it.
"""

from __future__ import annotations

import json
import os
import platform
import time

import numpy as np

from repro.bench import workloads
from repro.core.aligned_bound import AlignedBound
from repro.core.mso import evaluate_algorithm
from repro.core.plan_bouquet import PlanBouquet
from repro.core.spill_bound import SpillBound
from repro.errors import ReproError
from repro.ess.persistence import ess_cache_key
from repro.obs.metrics import REGISTRY
from repro.perf import cache as ess_cache
from repro.perf.parallel import fanout_decision


def validate_artifact_path(path):
    """Fail fast (:class:`ReproError`) on an unwritable ``--json`` path.

    Checked *before* the benchmark runs, so a bad destination costs
    seconds rather than surfacing as an :class:`OSError` traceback after
    minutes of measurement.
    """
    if not path:
        return
    if os.path.isdir(path):
        raise ReproError(
            f"bench artifact path {path!r} is a directory; give a file path"
        )
    directory = os.path.dirname(path) or "."
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise ReproError(
            f"cannot create bench artifact directory {directory!r}: {exc}"
        ) from None
    if not os.access(directory, os.W_OK):
        raise ReproError(
            f"bench artifact directory {directory!r} is not writable"
        )
    if os.path.exists(path) and not os.access(path, os.W_OK):
        raise ReproError(
            f"bench artifact path {path!r} exists and is not writable"
        )

#: Schema version of the BENCH json artifact.  v2: ``sweeps`` compares
#: the reference loop against the frontier-batched engine (was serial vs
#: multiprocess) and the fan-out measurement moved to ``parallel`` with
#: an explicit skip/skip_reason record.  v3: adds ``wallclock`` —
#: Volcano-vs-vector engine timings on the Section 6.3 experiment with
#: an identity flag.  v4: adds ``tracing`` — tracing-off vs tracing-on
#: sweep timings with a bit-identity flag, plus the registry's
#: ``gauges``/``histograms`` sections riding in the phase profile.
#: v5: adds ``ess_build`` — eager full-grid vs lazy contour-adaptive
#: surface construction: optimizer-call counts, end-to-end discovery
#: timings, peak RSS (``ru_maxrss``), a bit-identity check per cell, and
#: optionally a cell whose eager build is infeasible under a laptop-class
#: memory budget and is therefore recorded as not attempted.  v6: adds
#: ``serving`` — a closed-loop mixed-tenant burst against the in-process
#: discovery server (:func:`repro.serve.loadgen.bench_serving`):
#: p50/p90/p99 latency and rps, a single-flight proof (exactly one
#: ``ess_build`` per unique surface under >= 32-way concurrency, the
#: rest coalesced or cache hits), a served-vs-solo bit-identity check
#: per workload, and a conformance pass over the service path.
#: v7: adds ``anytime`` — average-case discovery cost under
#: prior-guided contour scheduling (:func:`bench_anytime`): randomized
#: conformance workloads discovered at their true locations under the
#: uniform, sampled and history priors, with per-mode mean/percentile
#: cost speedups vs uniform, mean sub-optimality, and a conformance
#: monitor pass over every prior-scheduled run (the MSO machinery must
#: hold with aggressive scheduling on).
#: v8: adds ``arena`` — the head-to-head arena
#: (:func:`bench_arena`): the guaranteed algorithms and the fixed-plan
#: rivals (penalty-aware, minmax-regret, sampling) swept over shared
#: seeded workloads, MSO and ASO per (workload, algorithm) row, with
#: per-algorithm aggregates and a conformance-monitor violation count
#: (the guarantees are asserted for pb/sb/ab while the rivals, which
#: have none, are exempt).
#: v9: adds ``observability`` — end-to-end request-tracing economics
#: against the in-process server
#: (:func:`repro.serve.loadgen.bench_observability`): paired
#: tracing-off/tracing-on closed-loop bursts (median relative p50
#: delta as ``overhead_pct``, budget < 2%), a served bit-identity
#: check traced vs untraced vs solo, and a structural proof that one
#: traced request fanning a nested parallel sweep yields a single
#: merged multi-process trace (front-end, pool-worker and
#: sweep-worker spans under one trace id, wall-clock ordered).
BENCH_SCHEMA_VERSION = 9

#: Timing repeats per engine; the minimum is reported (the minimum is
#: the least noise-contaminated observation of a deterministic
#: computation — the ``timeit`` rationale).
SWEEP_REPEATS = 5

_ALGORITHMS = {"pb": PlanBouquet, "sb": SpillBound, "ab": AlignedBound}


def _disk_key(instance):
    return ess_cache_key(
        query_name=instance.query.name,
        resolution=instance.ess.grid.resolution,
        sel_min=[float(v[0]) for v in instance.ess.grid.values],
        cost_fingerprint=instance.ess.cost_model.fingerprint(),
        left_deep=False,
    )


def bench_cache(name, profile, resolution=None):
    """Cold-build vs warm-load timings for one workload."""
    workloads.clear_cache()
    # Evict any pre-existing archive so "cold" really builds.
    probe = workloads.load(name, profile=profile, resolution=resolution)
    path = ess_cache.archive_path(_disk_key(probe))
    workloads.clear_cache()
    if os.path.exists(path):
        os.remove(path)

    start = time.perf_counter()
    cold = workloads.load(name, profile=profile, resolution=resolution)
    cold_s = time.perf_counter() - start

    workloads.clear_cache()
    start = time.perf_counter()
    warm = workloads.load(name, profile=profile, resolution=resolution)
    warm_s = time.perf_counter() - start

    identical = (
        np.array_equal(cold.ess.optimal_cost, warm.ess.optimal_cost)
        and np.array_equal(cold.ess.plan_ids, warm.ess.plan_ids)
        and cold.ess.plan_keys == warm.ess.plan_keys
    )
    return {
        "query": name,
        "profile": profile or workloads.active_profile(),
        "grid_points": int(cold.ess.grid.num_points),
        "posp_size": int(cold.ess.posp_size),
        "cold_build_s": cold_s,
        "warm_load_s": warm_s,
        "speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
        "roundtrip_identical": bool(identical),
        "cache_hit": bool(REGISTRY.counter("ess_cache_hit")),
    }


def _fresh_instance(name, profile, resolution):
    """A workload instance with cold in-process caches.

    Clearing the registry forces a reload; the persistent archive makes
    that cheap while guaranteeing the ESS-level memo caches (spill
    curves, per-plan cost arrays) start empty, so back-to-back sweep
    timings don't leak warmth into each other.
    """
    workloads.clear_cache()
    return workloads.load(name, profile=profile, resolution=resolution)


def _timed_sweep(cls, name, profile, resolution, engine, workers=None):
    """One fresh-instance exhaustive sweep on the given engine."""
    instance = _fresh_instance(name, profile, resolution)
    algorithm = cls(instance.ess, instance.contours)
    start = time.perf_counter()
    evaluation = evaluate_algorithm(algorithm, workers=workers,
                                    engine=engine)
    return time.perf_counter() - start, evaluation, instance


def bench_sweep(name, profile, algorithms=("pb", "sb", "ab"),
                resolution=None, repeats=SWEEP_REPEATS):
    """Reference loop vs frontier-batched exhaustive evaluation.

    Each engine runs ``repeats`` times on a fresh instance (cold memo
    caches every run) and the minimum is reported; the two engines'
    sub-optimality arrays must be bit-identical (``np.array_equal``).
    """
    out = {}
    for key in algorithms:
        cls = _ALGORITHMS[key]
        loop_s = batch_s = float("inf")
        loop_eval = batch_eval = instance = None
        for _ in range(repeats):
            elapsed, loop_eval, instance = _timed_sweep(
                cls, name, profile, resolution, "loop")
            loop_s = min(loop_s, elapsed)
            elapsed, batch_eval, _ = _timed_sweep(
                cls, name, profile, resolution, "batch")
            batch_s = min(batch_s, elapsed)
        identical = np.array_equal(
            loop_eval.suboptimality, batch_eval.suboptimality
        )
        out[key] = {
            "grid_points": int(instance.ess.grid.num_points),
            "loop_s": loop_s,
            "batch_s": batch_s,
            "repeats": int(repeats),
            "speedup": loop_s / batch_s if batch_s > 0 else float("inf"),
            "batch_identical": bool(identical),
            "max_abs_deviation": float(np.max(np.abs(
                loop_eval.suboptimality - batch_eval.suboptimality
            ))),
            "mso": float(loop_eval.mso),
            "aso": float(loop_eval.aso),
        }
    return out


def bench_parallel(name, profile, workers, algorithms=("sb",),
                   resolution=None):
    """The multiprocess fan-out, reported honestly.

    :func:`repro.perf.parallel.fanout_decision` is consulted first; when
    it keeps the sweep serial, the entry records the skip and its reason
    instead of timing a fan-out the engine would never run.  Only when
    fan-out proceeds are serial-vs-parallel timings (and their max
    absolute deviation, expected 0.0) measured.
    """
    out = {}
    for key in algorithms:
        cls = _ALGORITHMS[key]
        instance = _fresh_instance(name, profile, resolution)
        num_points = int(instance.ess.grid.num_points)
        effective, skip = fanout_decision(num_points, workers)
        entry = {
            "grid_points": num_points,
            "workers_requested": int(workers),
            "workers_effective": int(effective),
            "skipped": skip is not None,
            "skip_reason": skip,
        }
        if skip is None:
            serial_s, serial_eval, _ = _timed_sweep(
                cls, name, profile, resolution, "batch")
            start_instance = _fresh_instance(name, profile, resolution)
            algorithm = cls(start_instance.ess, start_instance.contours)
            start = time.perf_counter()
            par = evaluate_algorithm(algorithm, workers=effective,
                                     engine="parallel")
            parallel_s = time.perf_counter() - start
            entry.update({
                "serial_s": serial_s,
                "parallel_s": parallel_s,
                "speedup": serial_s / parallel_s if parallel_s > 0 else 0.0,
                "max_abs_deviation": float(np.max(np.abs(
                    serial_eval.suboptimality - par.suboptimality
                ))),
            })
        out[key] = entry
    return out


def _wallclock_fingerprint(result):
    """Everything comparable about one wall-clock run, bit-exactly.

    Floats go through ``repr`` so the identity check is exact to the
    last bit and NaN learned-selectivities (killed spill steps) compare
    equal instead of poisoning ``==``.
    """
    fp = {k: repr(result[k]) for k in (
        "qa", "oracle_cost", "oracle_rows", "native_cost", "sb_cost",
        "sb_steps", "ab_cost", "ab_steps", "rows_match",
    )}
    for label in ("sb_report", "ab_report"):
        fp[label] = [
            (s.contour, s.plan_key, s.mode, s.spill_epp, repr(s.budget),
             repr(s.cost_spent), s.completed, repr(s.learned_selectivity))
            for s in result[label].steps
        ]
    return fp


def bench_wallclock(row_budget=40_000, seed=11, resolution=None,
                    repeats=SWEEP_REPEATS):
    """Volcano vs vector engine on the Section 6.3 experiment.

    One wall-clock setup (data + ESS + contours) is built up front and
    shared, and the true location memo is warmed, so the timed region is
    exactly the engine-bound discovery work.  Each engine runs
    ``repeats`` times and the minimum is reported; the identity flag
    asserts both engines returned bit-identical experiment results,
    step-by-step (:func:`_wallclock_fingerprint`).
    """
    from repro.bench.harness import run_wallclock
    from repro.bench.wallclock import build_wallclock_setup
    from repro.engine.driver import measured_location

    kwargs = {} if resolution is None else {"resolution": resolution}
    setup = build_wallclock_setup(row_budget=row_budget, seed=seed, **kwargs)
    measured_location(setup.generator, setup.query)  # warm the qa memo
    timings, fingerprints = {}, {}
    for engine in ("volcano", "vector"):
        best = float("inf")
        result = None
        for _ in range(repeats):
            start = time.perf_counter()
            result = run_wallclock(engine=engine, setup=setup)
            best = min(best, time.perf_counter() - start)
        timings[engine] = best
        fingerprints[engine] = _wallclock_fingerprint(result)
    return {
        "query": setup.query.name,
        "row_budget": int(row_budget),
        "seed": int(seed),
        "grid_points": int(setup.ess.grid.num_points),
        "repeats": int(repeats),
        "volcano_s": timings["volcano"],
        "vector_s": timings["vector"],
        "speedup": (timings["volcano"] / timings["vector"]
                    if timings["vector"] > 0 else float("inf")),
        "identical": fingerprints["volcano"] == fingerprints["vector"],
        "vector_fallbacks": int(REGISTRY.counter("vector_fallback")),
    }


def bench_tracing(name, profile, algorithm="sb", resolution=None,
                  repeats=SWEEP_REPEATS):
    """Tracing-off vs tracing-on exhaustive sweep on one workload.

    The disabled path must be free (no tracer installed — an
    instrumented call site costs a global load and a None check) and
    the enabled path must not perturb results: both sweeps'
    sub-optimality arrays are compared bit-exactly
    (``np.array_equal``).  Timings are best-of-``repeats`` on fresh
    instances, same protocol as :func:`bench_sweep`.
    """
    from repro.obs.trace import Tracer, install_tracer

    cls = _ALGORITHMS[algorithm]
    off_s = on_s = float("inf")
    off_eval = on_eval = instance = None
    spans = 0
    for _ in range(repeats):
        elapsed, off_eval, instance = _timed_sweep(
            cls, name, profile, resolution, "batch")
        off_s = min(off_s, elapsed)
        tracer = Tracer()
        previous = install_tracer(tracer)
        try:
            elapsed, on_eval, _ = _timed_sweep(
                cls, name, profile, resolution, "batch")
        finally:
            install_tracer(previous)
        on_s = min(on_s, elapsed)
        spans = len(tracer.spans)
    identical = np.array_equal(
        off_eval.suboptimality, on_eval.suboptimality
    )
    return {
        "query": name,
        "algorithm": algorithm,
        "engine": "batch",
        "grid_points": int(instance.ess.grid.num_points),
        "repeats": int(repeats),
        "tracing_off_s": off_s,
        "tracing_on_s": on_s,
        "overhead_pct": ((on_s - off_s) / off_s * 100.0
                         if off_s > 0 else 0.0),
        "identical": bool(identical),
        "spans_per_sweep": int(spans),
    }


#: Eager full-grid builds whose estimated peak RSS exceeds this budget
#: are recorded as infeasible (not attempted) in the ``ess_build``
#: section — the laptop-class memory budget the benchmark assumes.
EAGER_RSS_BUDGET_MB = 4096

#: Measured eager-DP footprint per grid point (KB), from the 5D_Q91
#: resolution-scaling measurement (45 MB @ 7.8k points -> 149 MB @ 100k
#: points, ~1.13 KB/point marginal).  Used only to *refuse* eager
#: builds over the budget, never to report a number as measured.
EAGER_KB_PER_POINT = 1.2

#: Default eager-vs-lazy build cells: the 4D acceptance cell (lazy must
#: cut optimizer calls >= 10x on a resolution-20 grid) and a 5-epp
#: million-point grid.
DEFAULT_ESS_CELLS = (("4D_Q26", 20), ("5D_Q91", 16))

#: The high-resolution 5-epp cell (24.3M points): eager needs an
#: estimated ~28 GB so it is never attempted; the lazy surface completes
#: it.  Included via ``repro bench --ess-big-cell``.
BIG_ESS_CELL = ("5D_Q91", 30)


def _peak_rss_kb():
    """Process-lifetime peak RSS in KB (Linux ``ru_maxrss`` unit)."""
    import resource

    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _run_fingerprint(ess, result):
    """Bit-exact fingerprint of one discovery run, mode-portable.

    Plan *ids* are surface-local (the lazy surface numbers plans in
    resolution order, the eager one in sorted-key order), so executions
    are compared through their plan *keys*; floats go through ``repr``
    so the comparison is exact to the last bit.
    """
    return {
        "total_cost": repr(result.total_cost),
        "optimal_cost": repr(result.optimal_cost),
        "suboptimality": repr(result.suboptimality),
        "executions": [
            (r.contour, r.mode, r.spill_dim, ess.plan_keys[r.plan_id],
             repr(r.budget), repr(r.charged), r.completed)
            for r in result.executions
        ],
    }


def _no_persistent_cache():
    """Context manager: disable the archive cache (honest cold builds)."""
    import contextlib

    @contextlib.contextmanager
    def scope():
        previous = os.environ.get("REPRO_CACHE")
        os.environ["REPRO_CACHE"] = "0"
        try:
            yield
        finally:
            if previous is None:
                os.environ.pop("REPRO_CACHE", None)
            else:
                os.environ["REPRO_CACHE"] = previous

    return scope()


def _ess_build_cell(name, resolution):
    """One eager-vs-lazy cell: build + discovery run at the true qa.

    The lazy side runs *first*: ``ru_maxrss`` is a process-lifetime
    high-water mark, so this ordering guarantees the lazy figure is
    never inflated by the eager build's allocations (the eager figure
    may be understated by earlier peaks — the conservative direction).
    """
    from repro.core.spill_bound import SpillBound

    with _no_persistent_cache():
        workloads.clear_cache()
        start = time.perf_counter()
        lazy = workloads.load(name, resolution=resolution, ess_mode="lazy")
        algorithm = SpillBound(lazy.ess, lazy.contours)
        result = algorithm.run(lazy.qa_coords(), trace=True)
        lazy_s = time.perf_counter() - start
        num_points = int(lazy.ess.grid.num_points)
        lazy_calls = int(lazy.ess.optimizer_calls)
        cell = {
            "query": name,
            "resolution": int(resolution),
            "grid_points": num_points,
            "lazy": {
                "build_and_run_s": lazy_s,
                "optimizer_calls": lazy_calls,
                "resolved_fraction": lazy_calls / num_points,
                "peak_rss_kb": _peak_rss_kb(),
                "suboptimality": float(result.suboptimality),
            },
            # An eager build always issues exactly one optimizer
            # evaluation per grid point, whether or not it is run here.
            "call_reduction": (num_points / lazy_calls
                               if lazy_calls else float("inf")),
        }
        lazy_fp = _run_fingerprint(lazy.ess, result)
        workloads.clear_cache()

        estimated_mb = num_points * EAGER_KB_PER_POINT / 1024.0
        if estimated_mb > EAGER_RSS_BUDGET_MB:
            cell["eager"] = {
                "attempted": False,
                "estimated_rss_mb": estimated_mb,
                "reason": (
                    f"estimated ~{estimated_mb / 1024.0:.1f} GB peak RSS "
                    f"exceeds the {EAGER_RSS_BUDGET_MB // 1024} GB budget"
                ),
            }
            return cell

        start = time.perf_counter()
        eager = workloads.load(name, resolution=resolution,
                               ess_mode="eager")
        algorithm = SpillBound(eager.ess, eager.contours)
        eager_result = algorithm.run(eager.qa_coords(), trace=True)
        eager_s = time.perf_counter() - start
        cell["eager"] = {
            "attempted": True,
            "build_and_run_s": eager_s,
            "optimizer_calls": int(eager.ess.optimizer_calls),
            "peak_rss_kb": _peak_rss_kb(),
            "suboptimality": float(eager_result.suboptimality),
        }
        cell["speedup"] = eager_s / lazy_s if lazy_s > 0 else float("inf")
        cell["run_identical"] = (
            lazy_fp == _run_fingerprint(eager.ess, eager_result)
        )
        workloads.clear_cache()
    return cell


def bench_ess_build(name, profile, resolution=None, cells=DEFAULT_ESS_CELLS,
                    big_cell=False):
    """Eager full-grid vs lazy contour-adaptive ESS construction.

    Two parts: a *sweep identity* check on the bench workload — the full
    exhaustive MSO sweep under both modes must produce bit-identical
    (``np.array_equal``) sub-optimality arrays (an exhaustive sweep
    resolves every location, so its value is fidelity, not economy) —
    and per-``cells`` build economy: lazy build + one discovery run at
    the true ``qa`` vs the eager equivalent, with optimizer-call counts,
    peak RSS and a run-fingerprint identity flag.  Cells whose eager
    build is estimated over :data:`EAGER_RSS_BUDGET_MB` record the
    refusal instead of a measurement.
    """
    from repro.core.spill_bound import SpillBound

    with _no_persistent_cache():
        workloads.clear_cache()
        evals = {}
        for mode in ("lazy", "eager"):
            instance = workloads.load(name, profile=profile,
                                      resolution=resolution, ess_mode=mode)
            algorithm = SpillBound(instance.ess, instance.contours)
            evals[mode] = evaluate_algorithm(algorithm, engine="batch")
            workloads.clear_cache()
    identity = {
        "query": name,
        "grid_points": int(
            evals["eager"].suboptimality.size
        ),
        "identical": bool(np.array_equal(
            evals["lazy"].suboptimality, evals["eager"].suboptimality
        )),
        "mso_lazy": float(evals["lazy"].mso),
        "mso_eager": float(evals["eager"].mso),
    }
    cell_list = [
        _ess_build_cell(cell_name, cell_resolution)
        for cell_name, cell_resolution in cells
    ]
    if big_cell:
        cell_list.append(_ess_build_cell(*BIG_ESS_CELL))
    return {"sweep_identity": identity, "cells": cell_list}


#: Default workload count for the anytime prior-scheduling cell.
ANYTIME_WORKLOADS = 100


def bench_anytime(num_workloads=ANYTIME_WORKLOADS, base_seed=0,
                  algorithms=("pb", "sb", "ab")):
    """Average-case discovery cost under prior-guided scheduling.

    Every seeded conformance workload is discovered at its *true*
    location by each algorithm under three priors: ``uniform`` (the
    guaranteed-inert baseline), ``sampled`` (catalog sampling), and
    ``history`` (fitted from the uniform runs' recorded outcomes in a
    throwaway store — the serving-tier repeat-workload scenario, where
    past discoveries of the same query feed the next one's schedule).
    Per (workload, algorithm) the speedup is the uniform run's total
    discovery cost over the prior run's; every prior-scheduled run
    also passes through a :class:`ConformanceMonitor`, so the artifact
    proves the MSO machinery held while the scheduler was aggressive.
    """
    import tempfile

    from repro.conformance.monitors import ConformanceMonitor
    from repro.conformance.workloads import build_conformance_instance
    from repro.prior import HistoryStore, history_key, make_prior

    monitor = ConformanceMonitor()
    costs = {m: [] for m in ("uniform", "sampled", "history")}
    subs = {m: [] for m in ("uniform", "sampled", "history")}
    with tempfile.TemporaryDirectory() as tmp:
        store = HistoryStore(os.path.join(tmp, "history.jsonl"))
        for k in range(num_workloads):
            seed = base_seed + k
            instance = build_conformance_instance(seed)
            qa = instance.query.true_location()
            priors = {"uniform": make_prior("uniform")}
            with monitor.context(seed=seed, workload=instance.name):
                for name in algorithms:
                    algorithm = _ALGORITHMS[name](
                        instance.ess, instance.contours,
                        prior=priors["uniform"])
                    result = algorithm.run(qa, trace=True)
                    monitor.check_run(result, algorithm, engine="loop")
                    costs["uniform"].append(float(result.total_cost))
                    subs["uniform"].append(float(result.suboptimality))
                store.record(history_key(instance.query, instance.ess),
                             qa)
                priors["sampled"] = make_prior(
                    "sampled", instance.query, instance.ess)
                priors["history"] = make_prior(
                    "history", instance.query, instance.ess, store=store)
                for mode in ("sampled", "history"):
                    for name in algorithms:
                        algorithm = _ALGORITHMS[name](
                            instance.ess, instance.contours,
                            prior=priors[mode])
                        result = algorithm.run(qa, trace=True)
                        monitor.check_run(result, algorithm,
                                          engine="loop")
                        costs[mode].append(float(result.total_cost))
                        subs[mode].append(float(result.suboptimality))
        store.close()
    uniform = np.asarray(costs["uniform"], dtype=float)
    modes = {
        "uniform": {
            "mean_cost": float(uniform.mean()),
            "aso_mean": float(np.mean(subs["uniform"])),
        },
    }
    for mode in ("sampled", "history"):
        cost = np.asarray(costs[mode], dtype=float)
        speedups = uniform / cost
        modes[mode] = {
            "mean_cost": float(cost.mean()),
            "aso_mean": float(np.mean(subs[mode])),
            "speedup_mean": float(speedups.mean()),
            "speedup_p50": float(np.percentile(speedups, 50)),
            "speedup_p95": float(np.percentile(speedups, 95)),
            "speedup_min": float(speedups.min()),
        }
    return {
        "workloads": int(num_workloads),
        "base_seed": int(base_seed),
        "algorithms": list(algorithms),
        "runs_per_mode": int(uniform.size),
        "modes": modes,
        "violations": int(monitor.counters.get("violations", 0)),
    }


#: Default workload count for the arena cell.  Small: the bench wants a
#: representative head-to-head row set, not the CLI's full 20-workload
#: sweep.
ARENA_WORKLOADS = 6


def bench_arena(num_workloads=ARENA_WORKLOADS, base_seed=0):
    """The head-to-head arena as a BENCH section (schema v8).

    Delegates to :func:`repro.arena.report.run_arena` over the shared
    seeded conformance workloads and returns its payload — per-row MSO
    and ASO for every (workload, algorithm) cell, per-algorithm
    aggregates, and the conformance verdict (0 expected).
    """
    from repro.arena.report import run_arena

    return run_arena(num_workloads=num_workloads,
                     base_seed=base_seed).to_payload()


def run_bench(json_path=None, query="3D_Q91", profile=None, workers=4,
              resolution=None, ess_mode=None, ess_big_cell=False,
              anytime_workloads=None):
    """Run the full perf benchmark and (optionally) write the artifact.

    Args:
        json_path: where to write the BENCH json (None: don't write).
        query: workload for the cache, sweep and parallel measurements.
        profile: resolution profile (None: ``REPRO_PROFILE`` default).
        workers: requested process count for the parallel sweep (the
            fan-out cost guard may clamp or skip it).
        resolution: optional explicit grid resolution (bigger grids
            give every measurement more to chew).  The wall-clock
            engine comparison always runs its own 4D workload at that
            experiment's default resolution.
        ess_mode: ``"eager"``/``"lazy"`` surface mode for the cache,
            sweep, parallel and tracing sections (the ``ess_build``
            section always measures both modes explicitly).
        ess_big_cell: also measure :data:`BIG_ESS_CELL` — the 24M-point
            5-epp grid only the lazy surface can build (minutes).
        anytime_workloads: randomized workloads for the anytime
            prior-scheduling cell (None: :data:`ANYTIME_WORKLOADS`).
    """
    from repro.ess.lazy import resolve_ess_mode

    validate_artifact_path(json_path)
    ess_mode = resolve_ess_mode(ess_mode)
    REGISTRY.reset()
    previous_env = os.environ.get("REPRO_ESS")
    os.environ["REPRO_ESS"] = ess_mode
    try:
        cache_stats = bench_cache(query, profile, resolution=resolution)
        sweep_stats = bench_sweep(query, profile, resolution=resolution)
        parallel_stats = bench_parallel(query, profile, workers,
                                        resolution=resolution)
        wallclock_stats = bench_wallclock()
        tracing_stats = bench_tracing(query, profile, resolution=resolution)
    finally:
        if previous_env is None:
            os.environ.pop("REPRO_ESS", None)
        else:
            os.environ["REPRO_ESS"] = previous_env
    ess_build_stats = bench_ess_build(query, profile, resolution=resolution,
                                      big_cell=ess_big_cell)
    from repro.serve.loadgen import bench_observability, bench_serving

    serving_stats = bench_serving()
    observability_stats = bench_observability()
    anytime_stats = bench_anytime(
        num_workloads=(ANYTIME_WORKLOADS if anytime_workloads is None
                       else anytime_workloads))
    arena_stats = bench_arena()
    payload = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "generated_by": "repro bench",
        "hardware": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "parallel_speedup_achievable": (os.cpu_count() or 1) > 1,
        "ess_mode": ess_mode,
        "cache": cache_stats,
        "sweeps": sweep_stats,
        "parallel": parallel_stats,
        "wallclock": wallclock_stats,
        "tracing": tracing_stats,
        "ess_build": ess_build_stats,
        "serving": serving_stats,
        "observability": observability_stats,
        "anytime": anytime_stats,
        "arena": arena_stats,
    }
    payload.update(REGISTRY.summary())
    if json_path:
        write_artifact(json_path, payload)
    return payload


def write_artifact(path, payload):
    """Write a bench artifact: sorted, indented UTF-8 JSON, parent
    directories created."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True,
                  ensure_ascii=False)
        handle.write("\n")
