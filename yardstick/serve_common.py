"""Shared by the two served workloads: request drawing, reply
accounting, the in-process reference, and the per-layer figures read
from reply ``timings`` and ``/metrics`` deltas."""

from __future__ import annotations

import json
import math

import loadgen
import served
from stats import median, percentile

ALGORITHMS = ("sb", "ab", "pb")

#: Lower end of the log-uniform ``qa`` draw.  Every workload grid spans
#: [sel_min, 1] with sel_min <= 1e-5, so the draw is inside every grid.
QA_LOW = 1e-5

DISCOVER = "/v1/discover"
CONNECTIONS = 2


def num_epps(query):
    return int(query.split("D_", 1)[0])


def draw_request(rng, query, resolution=None, kind="run"):
    obj = {"query": query, "algorithm": rng.choice(ALGORITHMS), "kind": kind}
    if kind == "run":
        obj["qa"] = [math.exp(rng.uniform(math.log(QA_LOW), 0.0))
                     for _ in range(num_epps(query))]
    else:
        obj["engine"] = "batch"
    if resolution is not None:
        obj["resolution"] = resolution
    return obj


def encode(requests):
    return [loadgen.encode_post(DISCOVER, obj) for obj in requests]


class Server:
    """A started server, its connections and its temp directory."""

    def __init__(self, ctx, cache_mb=None):
        self.ctx = ctx
        self.tmp = ctx.make_tmp()
        self.proc = served.ServerProcess(
            ctx.src_dir, self.tmp, ctx.out_path("server.log"),
            cache_mb=cache_mb,
        )
        self.conns = []
        try:
            self.proc.start()
            self.conns = [self.proc.connect() for _ in range(CONNECTIONS)]
        except BaseException:
            self.close()
            raise

    @property
    def exchanges(self):
        return [conn.exchange for conn in self.conns]

    def record_with(self, recorder):
        """Connection-level spans of the next phase go to ``recorder``."""
        for conn in self.conns:
            conn.recorder = recorder

    def close(self):
        for conn in self.conns:
            try:
                conn.close()
            except OSError:
                pass
        self.conns = []
        # Pool workers the server exited without joining (killed and
        # waited for by stop()); summed over the run's servers.
        report = self.ctx.report
        seen = report.metrics.get("serve.orphaned_procs", (0.0, ""))[0]
        report.put("serve.orphaned_procs",
                   seen + len(self.proc.stop()), "count")
        self.ctx.drop_tmp(self.tmp)


class Reply:
    """What the metrics need of one reply; the body itself is dropped so
    the generator's memory stays below the program's."""

    __slots__ = ("ok", "timings", "nbytes", "service_ms")

    def __init__(self, sample, decoded):
        self.ok = sample.status == 200 and decoded.get("outcome") == "ok"
        self.timings = decoded.get("timings")
        self.nbytes = len(sample.body)
        self.service_ms = sample.service_ms


def surface_of(request):
    return request["query"], request.get("resolution")


def digest(report, what, scheduled, samples, requests):
    """Count the phase's requests and reduce its replies.

    Attempted = scheduled; anything not ``200 ok``, or never sent, fails.
    Returns ``(replies, firsts)``: a :class:`Reply` per sample, and the
    ``(request, served result)`` of the first ``run`` on every surface.
    """
    replies, firsts, seen = [], [], set()
    for sample in samples:
        try:
            decoded = json.loads(sample.body)
        except ValueError:
            decoded = {}
        replies.append(Reply(sample, decoded))
        sample.body = None
        request = requests[sample.index]
        surface = surface_of(request)
        if request["kind"] == "run" and surface not in seen:
            seen.add(surface)
            firsts.append((request, decoded.get("result")))
    good = sum(1 for r in replies if r.ok)
    report.count(scheduled, scheduled - good, what)
    return replies, firsts


def check_firsts(report, firsts):
    """Served result == in-process result as sorted JSON, for the first
    ``run`` request on every surface."""
    for request, served_result in firsts:
        where = request["query"] + (f"@{request['resolution']}"
                                    if "resolution" in request else "")
        report.check(
            f"served==solo {where}",
            served_result is not None
            and same_json(served_result, reference_result(request)),
        )


def reference_result(request):
    """The same request answered in this process, with no server.

    Goes through the program's own worker entry point, so the reference
    takes the code path a pool worker takes (surface from the archive the
    server just wrote).
    """
    from repro.serve import worker

    return worker.run_discovery(worker_spec(request)).get("result")


def worker_spec(request):
    """The task spec the server would hand a pool worker for ``request``
    under the benchmark's fixed server configuration."""
    return {
        "query": request["query"], "algorithm": request["algorithm"],
        "kind": request["kind"], "qa": request.get("qa"),
        "engine": request.get("engine", "auto"), "profile": served.PROFILE,
        "resolution": request.get("resolution"), "ess_mode": "eager",
        "prior": "uniform", "sleep_s": 0.0, "cancel_slot": None,
        "offer": None, "conformance": False,
    }


def same_json(a, b):
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def put_timings(report, replies):
    """``serve.timings.*``: where the server says each request's time
    went, and what neither it nor the client's clock accounts for."""
    parts = {"build": [], "queue": [], "load": [], "run": [], "total": [],
             "unaccounted": [], "gap": []}
    for reply in replies:
        timings = reply.timings
        if not timings or "total_s" not in timings:
            continue
        total = timings["total_s"]
        known = 0.0
        for part in ("build", "queue", "load", "run"):
            value = timings.get(f"{part}_s", 0.0)
            parts[part].append(value * 1000.0)
            known += value
        parts["total"].append(total * 1000.0)
        parts["unaccounted"].append((total - known) * 1000.0)
        parts["gap"].append(reply.service_ms - total * 1000.0)
    if not parts["total"]:
        return
    for part in ("build", "queue", "load", "run", "total", "unaccounted"):
        report.put(f"serve.timings.{part}_ms_p50", median(parts[part]), "ms")
    report.put("serve.timings.build_ms_p95",
               percentile(parts["build"], 95.0), "ms")
    report.put("serve.client_gap_ms_p50", median(parts["gap"]), "ms")
    report.put("serve.response_bytes_p50",
               median([r.nbytes for r in replies]), "bytes")


def put_scrape_delta(report, before, after):
    """``serve.surface.*``, ``serve.ess_builds``, ``serve.rejected``."""
    delta = served.metrics_delta(before, after)
    hits = delta.get("repro_serve_surface_hits_total", 0.0)
    builds = delta.get("repro_serve_surface_builds_total", 0.0)
    coalesced = delta.get("repro_serve_surface_coalesced_total", 0.0)
    lookups = hits + builds + coalesced
    report.put("serve.surface.hit_ratio",
               hits / lookups if lookups else 0.0, "ratio")
    report.put("serve.surface.builds", builds, "count")
    report.put("serve.surface.coalesced", coalesced, "count")
    report.put("serve.surface.evictions",
               delta.get("repro_serve_surface_evictions_total", 0.0), "count")
    report.put("serve.ess_builds",
               delta.get('repro_phase_runs_total{phase="ess_build"}', 0.0),
               "count")
    report.put("serve.rejected",
               sum(v for k, v in delta.items()
                   if k.startswith("repro_serve_rejected_total")), "count")


def check_shm(report, before):
    """Segments left in ``/dev/shm`` after the server has stopped."""
    leaked = served.shm_segments() - before
    report.put("serve.shm_leaked", len(leaked), "count")
    report.check("serve.shm_leaked", not leaked, str(sorted(leaked)[:4]))
