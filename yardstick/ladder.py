"""Per-layer ladder: timed calls into each layer's public functions.

Run only by the traced pass, after the workload whose end-to-end metric
the rung should move (README, "Which layer moves which metric"):
:func:`request_path` under ``serve_warm``, :func:`surface_path` under
``serve_churn``, :func:`optimizer_path` under ``offline_sweep``.  Every
figure is a median over repeated calls, each rung inside one span.
"""

from __future__ import annotations

import math
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor

from repro import AlignedBound, Optimizer, PlanBouquet, SpillBound
from repro.bench import workloads
from repro.ess.persistence import load_ess, save_ess
from repro.perf import cache as ess_cache
from repro.perf import shm
from repro.prior import make_prior
from repro.serve import protocol, worker

import serve_common as sc
from served import PROFILE
from stats import median

#: Resident surface of the request-path rungs (``serve_warm`` serves it).
QUERY = "4D_Q91"

#: Surface of the archive and shared-memory rungs.
ARCHIVE_SURFACE = ("4D_Q91", 16)


def _median_us(span, name, call, repeats):
    """Median microseconds of ``call()`` over ``repeats`` calls."""
    times = []
    with span(f"ladder.{name}", calls=repeats):
        for _ in range(repeats):
            begin = time.perf_counter_ns()
            call()
            times.append(time.perf_counter_ns() - begin)
    return median(times) / 1000.0


def request_path(ctx):
    """What one served scalar run costs layer by layer, called directly."""
    report, span = ctx.report, ctx.recorder.span
    rng = ctx.rng("ladder")
    requests = [sc.draw_request(rng, QUERY) for _ in range(200)]
    feed = iter(requests * 50)

    report.put("workloads.surface_key_us", _median_us(
        span, "workloads.surface_key",
        lambda: workloads.surface_key(QUERY, profile=PROFILE), 200), "us")
    instance = workloads.load(QUERY, profile=PROFILE, ess_mode="eager")
    report.put("workloads.load_memory_hit_us", _median_us(
        span, "workloads.load_memory_hit",
        lambda: workloads.load(QUERY, profile=PROFILE, ess_mode="eager"),
        2000), "us")

    executions = []
    for label, cls in (("pb", PlanBouquet), ("sb", SpillBound),
                       ("ab", AlignedBound)):
        def construct():
            # What the worker does per request: a prior, then the algorithm.
            prior = make_prior("uniform", instance.query, instance.ess)
            return cls(instance.ess, instance.contours, prior=prior)

        report.put(f"core.algorithm_init_us.{label}", _median_us(
            span, f"core.algorithm_init.{label}", construct, 200), "us")
        algorithm = construct()
        report.put(f"core.run_us.{label}", _median_us(
            span, f"core.run.{label}",
            lambda: executions.append(
                algorithm.run(tuple(next(feed)["qa"]),
                              trace=True).num_executions),
            200), "us")
    report.put("core.executions_per_run",
               sum(executions) / len(executions), "count")

    report.put("serve.parse_discover_us", _median_us(
        span, "serve.parse_discover",
        lambda: protocol.parse_discover(next(feed)), 2000), "us")
    report.put("serve.worker.run_discovery_us", _median_us(
        span, "serve.worker.run_discovery",
        lambda: worker.run_discovery(sc.worker_spec(next(feed))), 200), "us")
    payload = worker.run_discovery(sc.worker_spec(requests[0]))
    report.put("serve.result_pickle_us", _median_us(
        span, "serve.result_pickle",
        lambda: pickle.loads(pickle.dumps(payload)), 500), "us")
    report.put("serve.result_pickle_bytes", len(pickle.dumps(payload)),
               "bytes")
    response = {"outcome": "ok", "result": payload["result"],
                "timings": {"total_s": 0.0}}
    report.put("serve.json_payload_us", _median_us(
        span, "serve.json_payload",
        lambda: protocol.json_payload(200, response), 500), "us")

    # The server's own dispatch: a default-context pool of two workers.
    # No thread of this process is alive here, so forking is safe.
    with ProcessPoolExecutor(max_workers=2) as pool:
        for _ in range(4):
            pool.submit(worker.warmup).result()
        report.put("serve.pool_roundtrip_us", _median_us(
            span, "serve.pool_roundtrip",
            lambda: pool.submit(worker.warmup).result(), 500), "us")


def surface_path(ctx):
    """Archive and shared-memory hand-off of one 65k-point surface."""
    report, span = ctx.report, ctx.recorder.span
    name, resolution = ARCHIVE_SURFACE
    tmp = ctx.make_tmp()
    try:
        instance = workloads.load(name, profile=PROFILE,
                                  resolution=resolution, ess_mode="eager")
        ess, query = instance.ess, instance.query
        key = ess.provenance["disk_key"]
        path = os.path.join(tmp, "rung.ess.npz")

        report.put("ess.archive_save_ms", _median_us(
            span, "ess.archive_save",
            lambda: save_ess(ess, path, cache_key=key), 5) / 1000.0, "ms")
        report.put("ess.archive_bytes_per_point",
                   os.path.getsize(path) / ess.grid.num_points, "bytes")
        report.put("ess.archive_load_ms", _median_us(
            span, "ess.archive_load",
            lambda: load_ess(path, query, cost_model=ess.cost_model,
                             expected_key=key), 5) / 1000.0, "ms")
        report.put("perf.cache.fetch_hit_ms", _median_us(
            span, "perf.cache.fetch_hit",
            lambda: ess_cache.fetch(key, query, ess.cost_model), 5)
            / 1000.0, "ms")

        offers = []
        try:
            report.put("perf.shm.export_ms", _median_us(
                span, "perf.shm.export",
                lambda: offers.append(shm.export_for_transfer(key, ess)), 5)
                / 1000.0, "ms")
            shm.register_offer(offers[-1])
            report.put("perf.shm.attach_ms", _median_us(
                span, "perf.shm.attach",
                lambda: shm.attach_if_offered(key, query, ess.cost_model), 5)
                / 1000.0, "ms")
        finally:
            for offer in offers:
                if offer is not None:
                    shm.unlink_offer(offer)
    finally:
        workloads.clear_cache()
        ctx.drop_tmp(tmp)


def optimizer_path(ctx, instance):
    """Bulk and single-point optimizer calls on one surface's query."""
    report, span = ctx.report, ctx.recorder.span
    grid = instance.ess.grid
    optimizer = Optimizer(instance.query, instance.ess.cost_model)
    seconds = _median_us(
        span, "optimizer.optimize",
        lambda: optimizer.optimize(grid.environment(),
                                   num_points=grid.num_points).plans(),
        3) / 1e6
    report.put("optimizer.grid_points_per_s", grid.num_points / seconds,
               "pts/s")
    rng = ctx.rng("optimize_at")
    points = iter([[math.exp(rng.uniform(math.log(v[0]), 0.0))
                    for v in grid.values] for _ in range(200)])
    report.put("optimizer.optimize_at_us", _median_us(
        span, "optimizer.optimize_at",
        lambda: optimizer.optimize_at(next(points)), 200), "us")
