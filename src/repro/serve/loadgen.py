"""Closed-loop load generator and in-process server harness.

* :class:`ServeClient` — a blocking keep-alive JSON client over the
  stdlib ``http.client`` (one per load-generator thread, no deps);
* :func:`run_loadgen` — the closed loop itself: ``concurrency`` client
  threads issue requests back-to-back until ``total`` have completed,
  recording per-request latency/outcome and folding them into
  p50/p90/p99/rps;
* :class:`ServerThread`, :func:`solo_result` and
  :func:`check_merged_trace` — an in-process server on a background
  event loop, the solo run a served result must equal bit for bit, and
  the structural verdict on one merged multi-process trace.

Percentiles use linear interpolation between order statistics (the
numpy default), implemented by hand so the hot path stays stdlib-only.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time

from repro.errors import ReproError


class ServeClient:
    """Blocking keep-alive JSON client for one server connection."""

    def __init__(self, host, port, timeout=120.0):
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self._conn = None

    def _connection(self):
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def request(self, method, path, obj=None):
        """One request/response exchange: ``(status, body_bytes)``.

        A connection-level failure retries once on a fresh connection
        (the server may have closed an idle keep-alive socket).
        """
        body = None if obj is None else json.dumps(obj).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                payload = response.read()
                return response.status, payload
            except (http.client.HTTPException, ConnectionError, OSError):
                self.close()
                if attempt:
                    raise

    def request_json(self, method, path, obj=None):
        status, payload = self.request(method, path, obj)
        try:
            decoded = json.loads(payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            decoded = {"outcome": "error",
                       "error": f"undecodable body: {payload[:200]!r}"}
        return status, decoded

    def discover(self, payload):
        return self.request_json("POST", "/v1/discover", payload)

    def metrics_text(self, exemplars=False):
        path = "/metrics?exemplars=1" if exemplars else "/metrics"
        status, payload = self.request("GET", path)
        if status != 200:
            raise ReproError(f"/metrics returned HTTP {status}")
        return payload.decode("utf-8")

    def close(self):
        if self._conn is not None:
            try:
                self._conn.close()
            except Exception:
                pass
            self._conn = None


def percentile(values, q):
    """The ``q``-quantile (0..1) by linear interpolation."""
    if not values:
        return 0.0
    data = sorted(values)
    position = (len(data) - 1) * float(q)
    low = int(position)
    high = min(low + 1, len(data) - 1)
    fraction = position - low
    return data[low] * (1.0 - fraction) + data[high] * fraction


def scrape_counter(text, metric, labels=None):
    """Sum a metric's samples out of Prometheus text exposition.

    ``labels`` filters: every given pair must match the sample's label
    set (extra sample labels are allowed).  Missing metric reads 0.0 —
    counters that were never bumped are absent from the exposition.
    """
    wanted = {str(k): str(v) for k, v in (labels or {}).items()}
    total = 0.0
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if "{" in name_part:
            name, _, inner = name_part.partition("{")
            sample_labels = {}
            for item in inner.rstrip("}").split(","):
                if not item:
                    continue
                key, _, value = item.partition("=")
                sample_labels[key] = value.strip('"')
        else:
            name, sample_labels = name_part, {}
        if name != metric:
            continue
        if any(sample_labels.get(k) != v for k, v in wanted.items()):
            continue
        try:
            total += float(value_part)
        except ValueError:
            continue
    return total


def run_loadgen(host, port, queries, total=64, concurrency=8,
                algorithm="sb", kind="run", tenants=("default",),
                sleep_s=0.0, timeout=120.0, extra=None, trace_every=0):
    """Closed-loop burst: ``concurrency`` threads, ``total`` requests.

    Requests round-robin over ``queries`` and ``tenants`` by global
    request index.  ``trace_every`` > 0 forces ``"trace": true`` on
    every N-th request (by index) regardless of the server's own
    sampling policy; traced responses' ``trace_id`` values land on the
    per-request records and are counted in the summary.  Returns the
    latency/outcome summary (and the raw per-request records under
    ``"records"`` for callers that aggregate further).
    """
    queries = list(queries)
    tenants = list(tenants) or ["default"]
    if not queries:
        raise ReproError("loadgen needs at least one query")
    total = int(total)
    concurrency = max(1, min(int(concurrency), total))
    records = []
    lock = threading.Lock()
    counter = iter(range(total))

    def next_index():
        with lock:
            return next(counter, None)

    def drive():
        client = ServeClient(host, port, timeout=timeout)
        try:
            while True:
                index = next_index()
                if index is None:
                    return
                payload = {
                    "query": queries[index % len(queries)],
                    "algorithm": algorithm,
                    "kind": kind,
                    "tenant": tenants[index % len(tenants)],
                }
                if sleep_s:
                    payload["sleep_s"] = sleep_s
                if extra:
                    payload.update(extra)
                if trace_every and index % trace_every == 0:
                    payload["trace"] = True
                start = time.perf_counter()
                try:
                    status, response = client.discover(payload)
                    outcome = response.get("outcome", "error")
                except Exception as exc:  # noqa: BLE001 - record, go on
                    status, outcome = 0, "client_error"
                    response = {"error": f"{type(exc).__name__}: {exc}"}
                record = {
                    "index": index,
                    "query": payload["query"],
                    "tenant": payload["tenant"],
                    "status": status,
                    "outcome": outcome,
                    "latency_s": time.perf_counter() - start,
                }
                if response.get("trace_id"):
                    record["trace_id"] = response["trace_id"]
                if outcome in ("error", "client_error", "invalid"):
                    record["error"] = response.get("error")
                with lock:
                    records.append(record)
        finally:
            client.close()

    threads = [threading.Thread(target=drive, daemon=True)
               for _ in range(concurrency)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    duration = time.perf_counter() - started

    latencies = [r["latency_s"] for r in records]
    outcomes = {}
    statuses = {}
    for record in records:
        outcomes[record["outcome"]] = outcomes.get(record["outcome"], 0) + 1
        statuses[str(record["status"])] = (
            statuses.get(str(record["status"]), 0) + 1
        )
    completed = outcomes.get("ok", 0)
    traced = sum(1 for r in records if r.get("trace_id"))
    return {
        "requests": len(records),
        "traced": traced,
        "concurrency": concurrency,
        "queries": queries,
        "tenants": tenants,
        "algorithm": algorithm,
        "kind": kind,
        "sleep_s": float(sleep_s),
        "duration_s": duration,
        "rps": len(records) / duration if duration > 0 else 0.0,
        "ok": completed,
        "outcomes": outcomes,
        "status_codes": statuses,
        "latency_s": {
            "p50": percentile(latencies, 0.50),
            "p90": percentile(latencies, 0.90),
            "p99": percentile(latencies, 0.99),
            "mean": (sum(latencies) / len(latencies)) if latencies else 0.0,
            "max": max(latencies) if latencies else 0.0,
        },
        "records": records,
    }


class ServerThread:
    """A :class:`~repro.serve.server.DiscoveryServer` on a background
    event loop — the in-process harness for tests."""

    def __init__(self, config=None, **overrides):
        from repro.serve.server import DiscoveryServer

        self.server = DiscoveryServer(config, **overrides)
        self.loop = None
        self.address = None
        self._thread = None
        self._ready = threading.Event()
        self._error = None

    def start(self, timeout=180.0):
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise ReproError("discovery server failed to start in time")
        if self._error is not None:
            raise ReproError(f"discovery server failed to start: "
                             f"{self._error}")
        return self.address

    def _run(self):
        import asyncio

        self.loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self.loop)

        async def boot():
            try:
                self.address = await self.server.start()
            except BaseException as exc:  # noqa: BLE001 - report to starter
                self._error = exc
            finally:
                self._ready.set()

        self.loop.create_task(boot())
        try:
            self.loop.run_forever()
        finally:
            self.loop.close()

    def submit(self, coroutine, timeout=120.0):
        """Run a coroutine on the server loop from any thread."""
        import asyncio

        future = asyncio.run_coroutine_threadsafe(coroutine, self.loop)
        return future.result(timeout)

    def stop(self, drain=True, timeout=120.0):
        if self.loop is None or not self._thread.is_alive():
            return
        if self._error is None:
            try:
                self.submit(self.server.stop(drain=drain), timeout=timeout)
            except Exception:
                pass
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout)


def solo_result(query, profile=None, algorithm="sb", qa=None, prior=None):
    """The exact result payload a solo (CLI-path) run produces.

    Same substrate calls as :func:`repro.serve.worker.run_discovery`
    (``workloads.load`` then ``algorithm.run(trace=True)``) on a freshly
    loaded surface and a freshly built algorithm object — none of the
    worker's resident state — same serializer, then one JSON round-trip
    so the comparison is against wire bytes on both sides.
    """
    from repro.bench import workloads
    from repro.serve import worker

    workloads.clear_cache()
    instance = workloads.load(query, profile=profile, ess_mode="eager")
    algo = worker._make_algorithm(algorithm, instance, prior_kind=prior)
    payload = worker._execute(
        {"kind": "run", "qa": list(qa) if qa else None}, instance, algo
    )
    payload.pop("_raw", None)
    return json.loads(json.dumps(payload))


def _await_trace_file(trace_dir, trace_id, timeout=10.0):
    """The server writes trace JSONL off the event loop; wait for it."""
    path = os.path.join(trace_dir, f"trace-{trace_id}.jsonl")
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.path.exists(path) and os.path.getsize(path) > 0:
            return path
        time.sleep(0.05)
    raise ReproError(f"trace file {path} never appeared")


def check_merged_trace(meta, spans):
    """Structural verdict on one merged multi-process trace.

    Proves the acceptance shape: every span under one trace id, a
    ``serve.request`` root, pool-worker (``serve.worker.*``) and — when
    the request fanned a nested sweep — ``sweep.worker`` spans from
    other pids, and children wall-clock ordered by their
    ``time_unix_ns`` anchors.
    """
    from repro.obs.export import span_tree

    trace_ids = {s.get("trace_id") for s in spans}
    pids = {s.get("attrs", {}).get("pid") for s in spans} - {None}
    names = [s.get("name") for s in spans]
    roots, children = span_tree(spans)
    ordered = True
    for siblings in list(children.values()) + [roots]:
        anchors = [s.get("time_unix_ns") or 0 for s in siblings]
        if anchors != sorted(anchors):
            ordered = False
    verdict = {
        "trace_id": meta.get("trace_id"),
        "schema": meta.get("schema"),
        "spans": len(spans),
        "single_trace_id": trace_ids == {meta.get("trace_id")},
        "pids": sorted(int(p) for p in pids),
        "multi_process": len(pids) >= 2,
        "has_request_root": any(
            s.get("name") == "serve.request" for s in roots
        ),
        "has_pool_worker_spans": any(
            n and n.startswith("serve.worker.") for n in names
        ),
        "has_sweep_worker_spans": "sweep.worker" in names,
        "wall_ordered": ordered,
    }
    verdict["ok"] = all(
        verdict[key] for key in (
            "single_trace_id", "multi_process", "has_request_root",
            "has_pool_worker_spans", "wall_ordered",
        )
    )
    return verdict
