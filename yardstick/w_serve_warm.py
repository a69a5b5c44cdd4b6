"""Workload ``serve_warm``: five resident surfaces, scalar runs.

Discovery compute is about a millisecond here, so what is measured is
the ``serve`` front-end, pool dispatch and pickling, and the worker's
per-request load; ``optimizer``/``ess`` builds and ``perf.batch`` do
nothing.  Phase A is a closed loop (2 connections) and gives the
throughput; phase B is an open loop with Poisson arrivals at a fixed
rate and gives the latencies, timed from the instant each request was
due.  The traced run adds the other two rates of the table and the
per-layer ladder under the request path.
"""

from __future__ import annotations

import ladder
import loadgen
import serve_common as sc
import spans
from stats import median, percentile

WHY = ("resident surfaces, ~1 ms of discovery: serve front-end, pool "
       "dispatch and worker load dominate; the surface tier and builds "
       "are bypassed")

SURFACES = ("2D_Q91", "3D_Q91", "4D_Q91", "3D_Q15", "2D_JOB1a")
WARM_REQUESTS = 20

#: Offered rates of the open loop, requests per second.  Absolute
#: constants sized on the 2-core reference host (README, "Rates"); never
#: derived from a saturation measured at run time.
RATE_LO, RATE_MID, RATE_HI = 60.0, 120.0, 180.0

#: Latency limit for ``loadgen.slo_rate_rps``.
SLO_P95_MS = 25.0

#: Latencies and throughput are medians over this many equal slices of
#: a phase (the open loop at ``RATE_MID`` for 25 s: 600 samples a slice).
WINDOWS = 5

#: Upper bound on closed-loop throughput used to size the request list.
_MAX_RPS = 1500


def _start(ctx):
    server = sc.Server(ctx)
    try:
        warm = [{"query": q, "algorithm": "sb", "kind": "run"}
                for q in SURFACES for _ in range(WARM_REQUESTS)]
        samples, _ = loadgen.run_closed(server.exchanges, sc.encode(warm),
                                        seconds=float("inf"))
        if any(s.status != 200 for s in samples) or len(samples) != len(warm):
            raise RuntimeError("warm-up requests failed; see server.log")
    except BaseException:
        server.close()
        raise
    return server


def _requests(ctx, purpose, count):
    rng = ctx.rng(purpose)
    return [sc.draw_request(rng, rng.choice(SURFACES)) for _ in range(count)]


def _window_medians(samples, seconds, value_of):
    """Median over ``WINDOWS`` equal slices of a phase of ``value_of``
    (the samples due in the slice): one disturbed slice moves nothing."""
    out = []
    for window in range(WINDOWS):
        low = window * seconds / WINDOWS
        high = low + seconds / WINDOWS
        part = [s for s in samples
                if low <= (s.sent if s.due is None else s.due) < high]
        if part:
            out.append(value_of(part, high - low))
    return median(out)


def _open_phase(ctx, server, tag, rate, seconds, recorder):
    """One open-loop phase; returns its summary and raw material."""
    due = loadgen.poisson_schedule(rate, seconds, ctx.rng(f"due:{tag}"))
    requests = _requests(ctx, f"open:{tag}", len(due))
    server.record_with(recorder)
    with recorder.span("phase.open", rate=rate):
        samples, _ = loadgen.run_open(server.exchanges, sc.encode(requests),
                                      due, recorder)
    replies, firsts = sc.digest(ctx.report, f"open loop {tag}", len(due),
                                samples, requests)
    latencies = [s.latency_ms for s in samples]
    return {
        "samples": samples, "replies": replies, "firsts": firsts,
        "latencies": latencies,
        "p50": _window_medians(
            samples, seconds,
            lambda part, _: median([s.latency_ms for s in part])),
        "p95": _window_medians(
            samples, seconds,
            lambda part, _: percentile([s.latency_ms for s in part], 95.0)),
        "lag_p99": percentile(loadgen.send_lag_ms(samples), 99.0),
        "backlog_max": max(loadgen.backlog(samples, due)),
        "grows": loadgen.backlog_grows(samples, due),
    }


def _check_firsts(ctx, firsts):
    sc.check_firsts(ctx.report, firsts)
    ctx.report.check("every surface requested",
                     {r["query"] for r, _ in firsts} == set(SURFACES))


def _put_tier_bypass(ctx, before, after):
    report = ctx.report
    sc.put_scrape_delta(report, before, after)
    report.check("serve_warm bypasses the tier",
                 report.value("serve.surface.hit_ratio") == 1.0
                 and report.value("serve.ess_builds") == 0.0)


def run(ctx):
    report = ctx.report
    shm_before = sc.served.shm_segments()
    server = ctx.repeated_setup(lambda: _start(ctx), lambda s: s.close())
    try:
        before = server.proc.scrape()
        if ctx.traced:
            _traced_run(ctx, server)
        else:
            _untraced_run(ctx, server)
        _put_tier_bypass(ctx, before, server.proc.scrape())
        ctx.put_peak_rss(server.proc.peak_rss_mb())
    finally:
        server.close()
    sc.check_shm(report, shm_before)


def _untraced_run(ctx, server):
    report = ctx.report
    closed_s = 0.1 * ctx.seconds
    requests = _requests(ctx, "closed", int(_MAX_RPS * closed_s) + 64)
    samples, _ = loadgen.run_closed(server.exchanges, sc.encode(requests),
                                    closed_s)
    replies, _ = sc.digest(report, "closed loop", len(samples), samples,
                           requests)
    done = [s for s, r in zip(samples, replies) if r.ok]
    report.put("throughput_rps",
               _window_medians(done, closed_s,
                               lambda part, width: len(part) / width),
               "req/s")

    mid = _open_phase(ctx, server, "mid", RATE_MID, ctx.seconds - closed_s,
                      spans.OFF)
    report.put("latency_p50_ms", mid["p50"], "ms")
    report.put("latency_p95_ms", mid["p95"], "ms")
    report.put("loadgen.samples_rate_mid", len(mid["samples"]), "count")
    _check_firsts(ctx, mid["firsts"])

    report.put_roles(report.value("throughput_rps"), mid["p50"], mid["p95"])


def _traced_run(ctx, server):
    report = ctx.report
    share = {"lo": 0.15, "hi": 0.15, "mid": 0.25}
    lo = _open_phase(ctx, server, "lo", RATE_LO, share["lo"] * ctx.seconds,
                     spans.OFF)
    hi = _open_phase(ctx, server, "hi", RATE_HI, share["hi"] * ctx.seconds,
                     spans.OFF)
    mid = _open_phase(ctx, server, "mid", RATE_MID,
                      share["mid"] * ctx.seconds, spans.OFF)
    traced = _open_phase(ctx, server, "mid-traced", RATE_MID,
                         share["mid"] * ctx.seconds, ctx.recorder)
    report.put("obs.bench_trace_overhead_pct",
               100.0 * (traced["p50"] - mid["p50"]) / mid["p50"], "%")

    for tag, phase in (("rate_lo", lo), ("rate_hi", hi)):
        report.put(f"loadgen.{tag}.latency_p50_ms", phase["p50"], "ms")
        report.put(f"loadgen.{tag}.latency_p95_ms", phase["p95"], "ms")
        report.put(f"loadgen.{tag}.send_lag_ms_p99", phase["lag_p99"], "ms")
    report.put("loadgen.send_lag_ms_p99", mid["lag_p99"], "ms")
    report.put("loadgen.backlog_max",
               max(p["backlog_max"] for p in (lo, mid, hi)), "count")
    report.put("loadgen.latency_p99_ms",
               percentile(mid["latencies"], 99.0), "ms")
    report.put("loadgen.latency_max_ms", max(mid["latencies"]), "ms")
    meets = [rate for rate, phase in ((RATE_LO, lo), (RATE_MID, mid),
                                      (RATE_HI, hi))
             if phase["p95"] <= SLO_P95_MS and not phase["grows"]]
    report.put("loadgen.slo_rate_rps", max(meets, default=0.0), "req/s")

    sc.put_timings(report, mid["replies"])
    _check_firsts(ctx, mid["firsts"])
    ladder.request_path(ctx)
