"""The asyncio discovery server.

One :class:`DiscoveryServer` owns four moving parts:

* an **asyncio front-end** (``asyncio.start_server``) speaking the
  HTTP/JSON protocol of :mod:`repro.serve.protocol` over keep-alive
  connections;
* a **process-pool back-end** (``ProcessPoolExecutor``) running the
  build and discovery tasks of :mod:`repro.serve.worker`, with a
  fork-inherited cancel-slot array for cooperative budget kills;
* the **single-flight surface tier** of :mod:`repro.serve.surfaces`:
  each eager surface is built once into the archive cache, and workers
  share its mmapped arrays through the page cache;
* **admission control**: a bounded in-system request count (queue
  depth beyond the worker count) and per-tenant in-flight quotas, both
  answered with HTTP 429 — shed load at the door, never by letting the
  event loop drown.

Lifecycle: :meth:`start` binds the socket and spins the pool up;
:meth:`stop` drains — new work is refused with 503, in-flight requests
get ``drain_timeout_s`` to finish, stragglers are cooperatively
killed, the pool shuts down, and the tier is forgotten (with the
private archive directory, if the server made one).

Observability: every phase is counted/timed into the process-global
:data:`repro.obs.metrics.REGISTRY` (each worker ships its own summary
home per task and the server merges it), and ``GET /metrics`` renders
the whole registry as Prometheus text exposition.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import shutil
import tempfile
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from repro import settings
from repro.errors import QueryError, ReproError
from repro.obs.export import prometheus_text, write_trace_jsonl
from repro.obs.metrics import REGISTRY
from repro.obs.trace import NOOP_SPAN, Tracer
from repro.serve import protocol, worker
from repro.serve.dashboard import AuditLog, DashboardState, \
    render_dashboard_html
from repro.serve.surfaces import SurfaceTier

#: Histogram buckets for request-latency phases (seconds).
LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)

#: Entries kept by the front-end's ``(query, resolution)`` fingerprint
#: memo (a few dozen bytes each; past this the oldest is dropped).
FINGERPRINT_MEMO_LIMIT = 1024

#: Trace spool flush period: finished traces batch on the loop for at
#: most this long before the writer thread persists them.
TRACE_FLUSH_S = 0.25


#: ServeConfig fields that are settings of :mod:`repro.settings`.
_SETTING_FIELDS = {
    "workers": "REPRO_SERVE_WORKERS",
    "queue_limit": "REPRO_SERVE_QUEUE",
    "tenant_quota": "REPRO_SERVE_QUOTA",
    "cache_mb": "REPRO_SERVE_CACHE_MB",
    "profile": "REPRO_PROFILE",
    "ess_mode": "REPRO_ESS",
    "prior": "REPRO_PRIOR",
    "trace_every": "REPRO_SERVE_TRACE",
    "trace_dir": "REPRO_SERVE_TRACE_DIR",
    "audit_path": "REPRO_SERVE_AUDIT",
    "audit_threshold_s": "REPRO_SERVE_AUDIT_THRESHOLD_S",
    "audit_every": "REPRO_SERVE_AUDIT_SAMPLE",
}


@dataclass
class ServeConfig:
    """Server knobs (constructor args override the environment).

    Every field named in :data:`_SETTING_FIELDS` is a setting; its
    variable, floor and default are in :mod:`repro.settings`.  Traced
    requests (``trace_every``, ``trace_dir``) write their merged
    multi-process trace as ``trace-<trace_id>.jsonl``; the audit fields
    configure the slow-request JSONL log.
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = None
    queue_limit: int = None
    tenant_quota: int = None
    cache_mb: int = None
    profile: str = None
    ess_mode: str = None
    prior: str = None
    conformance: bool = False
    drain_timeout_s: float = 10.0
    trace_every: int = None
    trace_dir: str = None
    audit_path: str = None
    audit_threshold_s: float = None
    audit_every: int = None

    @classmethod
    def from_env(cls, **overrides):
        """A config from ``overrides`` (None = not given), each setting
        field resolved flag-then-environment-then-default.

        Raises:
            ReproError: a value is malformed or below its floor.
        """
        config = cls(**{k: v for k, v in overrides.items() if v is not None})
        return replace(config, **{
            field: settings.get(name, getattr(config, field))
            for field, name in _SETTING_FIELDS.items()
        })


class _RequestState:
    """Server-side bookkeeping for one admitted request."""

    __slots__ = ("slot", "cancelled", "cancel_event", "timer", "detached")

    def __init__(self, slot, cancel_event):
        self.slot = slot
        self.cancelled = False
        self.cancel_event = cancel_event
        self.timer = None
        # A dispatched pool future still running after a kill: it polls
        # the cancel slot, so the slot cannot be recycled before it ends.
        self.detached = None


class DiscoveryServer:
    """The long-running concurrent discovery service."""

    def __init__(self, config=None, **overrides):
        self.config = (config if config is not None
                       else ServeConfig.from_env(**overrides))
        self.tier = SurfaceTier(self.config.cache_mb * 1024 * 1024)
        self._server = None
        self._pool = None
        self._cancel_slots = None
        self._free_slots = []
        self._active = set()
        self._draining = False
        self._inflight = 0
        self._tenant_inflight = {}
        self._conn_tasks = set()
        self._started_at = None
        self._seq = 0
        self.dash = DashboardState()
        self.audit = (
            AuditLog(self.config.audit_path,
                     threshold_s=self.config.audit_threshold_s,
                     every=self.config.audit_every)
            if self.config.audit_path else None
        )
        self._trace_queue = None
        self._trace_writer = None
        self._trace_buffer = []
        self._trace_flusher = None
        self._fingerprints = {}
        self._archive_dir = None

    # -- lifecycle -----------------------------------------------------

    @property
    def address(self):
        """``(host, port)`` actually bound (port 0 resolves here)."""
        sock = self._server.sockets[0]
        return sock.getsockname()[:2]

    async def start(self):
        num_slots = self.config.queue_limit + self.config.workers + 8
        self._cancel_slots = multiprocessing.Array(
            "b", num_slots, lock=False
        )
        self._free_slots = list(range(num_slots))
        self._archive_dir = _private_archive_dir()
        try:
            # Fork, named rather than left to the platform default: the
            # inherited cancel slots and the signal reset in init_worker
            # assume workers are forked from this process.
            self._pool = ProcessPoolExecutor(
                max_workers=self.config.workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=worker.init_worker,
                initargs=(self._cancel_slots, self._archive_dir),
            )
            # Spin every worker up now: fork happens before the server
            # gets busy, and the first requests don't pay process
            # start-up.
            loop = asyncio.get_running_loop()
            await asyncio.gather(*[
                loop.run_in_executor(self._pool, worker.warmup)
                for _ in range(self.config.workers)
            ])
            self._server = await asyncio.start_server(
                self._handle_conn, self.config.host, self.config.port
            )
        except BaseException:
            # A failed start (port taken, say) leaves no pool and no
            # private directory behind.
            await self.stop(drain=False)
            raise
        self._started_at = time.time()
        REGISTRY.gauge("serve_workers", self.config.workers)
        self._publish_gauges()
        return self.address

    async def stop(self, drain=True):
        """Graceful drain: refuse new work, finish in-flight, clean up."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + (
            self.config.drain_timeout_s if drain else 0.0
        )
        while self._inflight and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        if self._inflight:
            # Stragglers get a cooperative kill and a short grace.
            for state in list(self._active):
                self._kill(state)
            grace = time.monotonic() + 2.0
            while self._inflight and time.monotonic() < grace:
                await asyncio.sleep(0.02)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        if self._trace_flusher is not None:
            self._trace_flusher.cancel()
            self._trace_flusher = None
        self._flush_traces()
        if self._trace_writer is not None:
            # Flush the spool: every accepted trace lands before stop()
            # returns.
            self._trace_queue.put(None)
            self._trace_writer.join(timeout=10.0)
            self._trace_writer = None
        self.tier.close()
        if self._archive_dir is not None:
            shutil.rmtree(self._archive_dir, ignore_errors=True)
            self._archive_dir = None
        self._publish_gauges()

    # -- cancellation --------------------------------------------------

    def _alloc_state(self):
        if not self._free_slots:
            return None
        slot = self._free_slots.pop()
        self._cancel_slots[slot] = 0
        return _RequestState(slot, asyncio.Event())

    def _release_state(self, state):
        if state.timer is not None:
            state.timer.cancel()
        detached = state.detached
        if detached is not None and not detached.done():
            # A killed request's pool task is still running and polls
            # the cancel slot at its checkpoints.  Clearing the flag now
            # would let the task run to completion (the kill becomes a
            # no-op) and recycling the slot could kill an unrelated
            # request; both wait until the task actually finishes.
            detached.add_done_callback(
                lambda task: self._finish_release(state, task)
            )
            return
        self._finish_release(state, detached)

    def _finish_release(self, state, task=None):
        if task is not None and not task.cancelled():
            task.exception()  # detached result is dropped; consume errors
        self._cancel_slots[state.slot] = 0
        self._free_slots.append(state.slot)

    def _kill(self, state):
        if not state.cancelled:
            state.cancelled = True
            self._cancel_slots[state.slot] = 1
            state.cancel_event.set()
            REGISTRY.incr("serve_killed")

    async def _race_cancel(self, awaitable, state, holds_slot=False):
        """Await ``awaitable`` unless the request gets killed first.

        Returns ``(done, value)``; on a kill the awaitable keeps
        running detached (single-flight builds and already-dispatched
        pool tasks must complete for their other consumers).  Pass
        ``holds_slot=True`` when the awaitable polls the request's
        cancel slot: the slot is then pinned until the detached task
        completes (see :meth:`_release_state`).
        """
        wait_task = asyncio.ensure_future(awaitable)
        cancel_task = asyncio.ensure_future(state.cancel_event.wait())
        try:
            await asyncio.wait(
                {wait_task, cancel_task},
                return_when=asyncio.FIRST_COMPLETED,
            )
        finally:
            cancel_task.cancel()
        if wait_task.done():
            return True, wait_task.result()
        if holds_slot:
            state.detached = wait_task
        return False, None

    # -- admission -----------------------------------------------------

    def _admission_error(self, request):
        if self._draining:
            return 503, "draining"
        if self._inflight >= self.config.queue_limit + self.config.workers:
            return 429, "queue_full"
        tenant_count = self._tenant_inflight.get(request.tenant, 0)
        if tenant_count >= self.config.tenant_quota:
            return 429, "tenant_quota"
        return None

    def _publish_gauges(self):
        REGISTRY.gauge("serve_inflight", self._inflight)
        REGISTRY.gauge(
            "serve_queue_depth",
            max(0, self._inflight - self.config.workers),
        )
        REGISTRY.gauge("serve_draining", 1.0 if self._draining else 0.0)

    # -- request handling ----------------------------------------------

    async def _handle_conn(self, reader, writer):
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            while True:
                try:
                    message = await protocol.read_http_message(reader)
                except protocol.ProtocolError as exc:
                    writer.write(protocol.json_payload(
                        400, {"outcome": "invalid", "error": str(exc)},
                        close=True,
                    ))
                    await writer.drain()
                    break
                if message is None:
                    break
                start_line, headers, body = message
                status, payload_bytes = await self._route(
                    start_line, headers, body
                )
                writer.write(payload_bytes)
                await writer.drain()
                if headers.get("connection", "").lower() == "close":
                    break
        except (ConnectionError, asyncio.CancelledError, OSError):
            pass
        finally:
            self._conn_tasks.discard(task)
            try:
                writer.close()
            except Exception:
                pass

    async def _route(self, start_line, headers, body):
        parts = start_line.split(" ")
        if len(parts) < 3:
            return 400, protocol.json_payload(
                400, {"outcome": "invalid", "error": "malformed request"}
            )
        method, path = parts[0], parts[1]
        path, _, query_string = path.partition("?")
        if method == "GET" and path == "/metrics":
            self._publish_gauges()
            # Exemplars are opt-in (?exemplars=1): the suffix is
            # OpenMetrics syntax, and strict 0.0.4 consumers (including
            # our own loadgen scraper) split sample lines on the last
            # space.
            text = prometheus_text(
                REGISTRY, exemplars="exemplars=1" in query_string
            )
            return 200, protocol.http_payload(
                200, text.encode("utf-8"),
                content_type="text/plain; version=0.0.4",
            )
        if method == "GET" and path == "/dashboard":
            html = render_dashboard_html(self.dash, REGISTRY, self.health())
            return 200, protocol.http_payload(
                200, html.encode("utf-8"),
                content_type="text/html; charset=utf-8",
            )
        if method == "GET" and path == "/healthz":
            return 200, protocol.json_payload(200, self.health())
        if method == "POST" and path == "/v1/discover":
            try:
                decoded = protocol.json.loads(body.decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as exc:
                return 400, protocol.json_payload(
                    400, {"outcome": "invalid",
                          "error": f"bad JSON body: {exc}"},
                )
            status, obj = await self.discover(decoded)
            return status, protocol.json_payload(status, obj)
        return 404, protocol.json_payload(
            404, {"outcome": "invalid", "error": f"no route {method} {path}"}
        )

    def health(self):
        return {
            "status": "draining" if self._draining else "ok",
            "inflight": self._inflight,
            "queue_depth": max(0, self._inflight - self.config.workers),
            "workers": self.config.workers,
            "uptime_s": (0.0 if self._started_at is None
                         else time.time() - self._started_at),
            "surfaces": self.tier.stats(),
        }

    def _should_trace(self, request):
        """Per-request tracing decision: explicit field beats sampling."""
        if request.trace is not None:
            return request.trace
        every = self.config.trace_every
        return every > 0 and self._seq % every == 0

    async def discover(self, payload):
        """One ``/v1/discover`` request: ``(http_status, response_obj)``."""
        received = time.time()
        self._seq += 1
        try:
            request = protocol.parse_discover(payload)
        except protocol.ProtocolError as exc:
            REGISTRY.incr("serve_requests",
                          labels={"outcome": "invalid"})
            self.dash.record(outcome="invalid", total_s=0.0)
            return 400, {"outcome": "invalid", "error": str(exc)}
        rejection = self._admission_error(request)
        if rejection is not None:
            status, reason = rejection
            REGISTRY.incr("serve_rejected", labels={"reason": reason})
            REGISTRY.incr("serve_requests",
                          labels={"outcome": "rejected"})
            self.dash.record(outcome="rejected", reason=reason,
                             query=request.query, tenant=request.tenant,
                             total_s=0.0, inflight=self._inflight)
            return status, {
                "outcome": "rejected", "reason": reason,
                "query": request.query, "tenant": request.tenant,
            }
        state = self._alloc_state()
        if state is None:  # exhausted slots (admission should prevent it)
            REGISTRY.incr("serve_rejected", labels={"reason": "queue_full"})
            return 429, {"outcome": "rejected", "reason": "queue_full"}
        self._inflight += 1
        self._active.add(state)
        self._tenant_inflight[request.tenant] = (
            self._tenant_inflight.get(request.tenant, 0) + 1
        )
        self._publish_gauges()
        if request.budget_s is not None:
            state.timer = asyncio.get_running_loop().call_later(
                request.budget_s, self._kill, state
            )
        tracer = None
        if self._should_trace(request):
            # Per-request tracer, never installed globally: span stacks
            # are per-tracer thread-locals, so concurrent coroutines on
            # the event loop each nest only their own request's spans.
            tracer = Tracer()
            REGISTRY.incr("serve_traced")
        try:
            if tracer is not None:
                with tracer.span("serve.request", pid=os.getpid(),
                                 query=request.query,
                                 algorithm=request.algorithm,
                                 kind=request.kind, tenant=request.tenant):
                    status, response = await self._admitted(
                        request, state, received, tracer=tracer
                    )
            else:
                status, response = await self._admitted(
                    request, state, received
                )
        except Exception as exc:  # noqa: BLE001 - keep the server alive
            REGISTRY.incr("serve_requests", labels={"outcome": "error"})
            status, response = 500, {
                "outcome": "error",
                "error": f"{type(exc).__name__}: {exc}",
            }
        finally:
            self._inflight -= 1
            self._active.discard(state)
            remaining = self._tenant_inflight.get(request.tenant, 1) - 1
            if remaining <= 0:
                self._tenant_inflight.pop(request.tenant, None)
            else:
                self._tenant_inflight[request.tenant] = remaining
            self._release_state(state)
            self._publish_gauges()
        total_s = time.time() - received
        response.setdefault("timings", {})["total_s"] = total_s
        outcome = response.get("outcome", "error")
        REGISTRY.incr("serve_requests", labels={"outcome": outcome})
        REGISTRY.incr("serve_requests_by_algorithm",
                      labels={"algorithm": request.algorithm,
                              "kind": request.kind})
        REGISTRY.incr("serve_tenant_requests",
                      labels={"tenant": request.tenant})
        exemplar = {"trace_id": tracer.trace_id} if tracer else None
        REGISTRY.observe("serve_latency_seconds", total_s,
                         labels={"phase": "total"},
                         buckets=LATENCY_BUCKETS, exemplar=exemplar)
        if tracer is not None:
            response["trace_id"] = tracer.trace_id
            if self.config.trace_dir:
                self._spool_trace(tracer)
        await self._observe_request(request, response, outcome, total_s,
                                    tracer)
        return status, response

    def _spool_trace(self, tracer):
        """Buffer one finished trace for the spool writer.

        The request path pays one ``list.append``.  Anything heavier
        here is amplified by the whole inflight window: writing the
        file inline stalls the loop for every queued response, and even
        a bare ``queue.Queue.put`` per trace costs ~0.25 ms in writer
        thread wake-up / GIL hand-off — at concurrency 12 that alone
        shows up as several ms of p50.  A periodic flusher hands the
        accumulated batch to a single daemon writer thread, so the
        per-trace cost on the loop is microseconds and the thread wakes
        once per flush interval, not once per request.  The per-request
        tracer is complete and immutable by now.
        """
        self._trace_buffer.append(tracer)
        if self._trace_flusher is None:
            self._trace_flusher = asyncio.get_running_loop().create_task(
                self._flush_traces_forever()
            )

    async def _flush_traces_forever(self):
        while True:
            await asyncio.sleep(TRACE_FLUSH_S)
            self._flush_traces()

    def _flush_traces(self):
        """Hand the buffered batch to the writer thread (lazy start)."""
        if not self._trace_buffer:
            return
        if self._trace_writer is None:
            import queue

            self._trace_queue = queue.Queue()
            self._trace_writer = threading.Thread(
                target=self._drain_traces, daemon=True,
                name="repro-trace-spool",
            )
            self._trace_writer.start()
        batch, self._trace_buffer = self._trace_buffer, []
        self._trace_queue.put(batch)

    def _drain_traces(self):
        """Spool-writer thread body: write batches until the sentinel."""
        while True:
            batch = self._trace_queue.get()
            if batch is None:
                return
            for tracer in batch:
                path = os.path.join(self.config.trace_dir,
                                    f"trace-{tracer.trace_id}.jsonl")
                try:
                    write_trace_jsonl(tracer, path)
                except OSError:
                    REGISTRY.incr("serve_trace_write_errors")

    async def _observe_request(self, request, response, outcome, total_s,
                               tracer):
        """Feed the dashboard ring and the audit log (request tail)."""
        timings = response.get("timings", {})
        conformance = response.get("conformance") or {}
        event = {
            "query": request.query,
            "algorithm": request.algorithm,
            "kind": request.kind,
            "tenant": request.tenant,
            "outcome": outcome,
            "total_s": total_s,
            "build_s": timings.get("build_s", 0.0),
            "queue_s": timings.get("queue_s", 0.0),
            "run_s": timings.get("run_s", 0.0),
            "source": response.get("surface", {}).get("source"),
            "violations": conformance.get("num_violations", 0),
            "inflight": self._inflight,
            "trace_id": tracer.trace_id if tracer else None,
        }
        self.dash.record(**event)
        if self.audit is not None:
            written = await asyncio.get_running_loop().run_in_executor(
                None, self.audit.maybe_record, event
            )
            if written:
                REGISTRY.incr("serve_audited")

    async def _admitted(self, request, state, received, tracer=None):
        """The post-admission pipeline: surface, dispatch, classify."""

        def _span(name, **attrs):
            return (tracer.span(name, **attrs) if tracer is not None
                    else NOOP_SPAN)

        loop = asyncio.get_running_loop()
        ess_mode = settings.get("REPRO_ESS",
                                request.ess_mode or self.config.ess_mode)
        prior = request.prior or self.config.prior or "uniform"
        base = {
            "query": request.query, "algorithm": request.algorithm,
            "kind": request.kind, "tenant": request.tenant,
            "ess_mode": ess_mode, "prior": prior,
        }
        try:
            known = await self._surface_of(request)
        except QueryError as exc:
            return 400, dict(base, outcome="invalid", error=str(exc))
        fingerprint, num_points = known
        base["surface"] = {"fingerprint": fingerprint, "mode": ess_mode,
                           "num_points": num_points, "source": "none"}

        build_s = 0.0
        if ess_mode == "eager":
            build_start = time.time()
            try:
                with _span("serve.build", fingerprint=fingerprint):
                    # A resident surface is answered on the spot; only a
                    # miss or a coalesced wait suspends, and only those
                    # need the kill race.
                    done = self.tier.lookup(fingerprint)
                    source = "hit"
                    if not done:
                        done, source = await self._race_cancel(
                            self.tier.acquire(
                                fingerprint,
                                lambda: self._build_surface(request, tracer),
                            ),
                            state,
                        )
            except Exception as exc:  # build failed for the whole flight
                return 500, dict(
                    base, outcome="error",
                    error=f"surface build failed: {exc}",
                )
            build_s = time.time() - build_start
            REGISTRY.observe("serve_latency_seconds", build_s,
                             labels={"phase": "build"},
                             buckets=LATENCY_BUCKETS)
            if not done:
                return 200, dict(base, outcome="killed",
                                 timings={"build_s": build_s})
            base["surface"]["source"] = source
        if state.cancelled:
            return 200, dict(base, outcome="killed",
                             timings={"build_s": build_s})

        spec = {
            "query": request.query,
            "algorithm": request.algorithm,
            "kind": request.kind,
            "qa": list(request.qa) if request.qa else None,
            "engine": request.engine,
            "profile": self.config.profile,
            "resolution": request.resolution,
            "ess_mode": ess_mode,
            "prior": prior,
            "sleep_s": request.sleep_s,
            "cancel_slot": state.slot,
            "conformance": (self.config.conformance
                            if request.conformance is None
                            else request.conformance),
        }
        dispatched = time.time()
        with _span("serve.dispatch") as dispatch_span:
            if tracer is not None:
                # Captured inside the dispatch span: the worker's child
                # tracer parents its spans onto it, so the merged tree
                # reads front-end -> dispatch -> worker.
                spec["trace"] = tracer.context().to_wire()
            done, result = await self._race_cancel(
                loop.run_in_executor(self._pool, worker.run_discovery,
                                     spec),
                state, holds_slot=True,
            )
            if done and tracer is not None:
                adopted = tracer.splice(result.get("spans"))
                dispatch_span.set_attr("worker_spans", adopted)
        if not done:
            # The pool task keeps running until its next checkpoint; the
            # response does not wait for it.
            return 200, dict(
                base, outcome="killed",
                timings={"build_s": build_s,
                         "queue_s": dispatched - received},
            )
        if result.get("metrics"):
            REGISTRY.merge(result["metrics"])
        queue_s = max(0.0, result.get("started_at", dispatched) - dispatched)
        run_s = result.get("run_s", 0.0)
        REGISTRY.observe("serve_latency_seconds", queue_s,
                         labels={"phase": "queue"}, buckets=LATENCY_BUCKETS)
        REGISTRY.observe("serve_latency_seconds", run_s,
                         labels={"phase": "run"}, buckets=LATENCY_BUCKETS)
        timings = {
            "build_s": build_s, "queue_s": queue_s,
            "load_s": result.get("load_s", 0.0), "run_s": run_s,
        }
        outcome = result.get("outcome", "error")
        response = dict(base, outcome=outcome, timings=timings,
                        worker_pid=result.get("pid"))
        if outcome == "ok":
            response["result"] = result["result"]
            if "conformance" in result:
                response["conformance"] = result["conformance"]
                REGISTRY.incr(
                    "serve_conformance_violations",
                    result["conformance"]["num_violations"],
                )
            return 200, response
        if outcome == "killed":
            return 200, response
        response["error"] = result.get("error", "unknown worker failure")
        return (400 if outcome == "invalid" else 500), response

    # -- surface plumbing ----------------------------------------------

    async def _surface_of(self, request):
        """``(fingerprint, num_points)`` of the request's surface.

        Memoised on the event loop per ``(query, resolution)`` — profile
        and cost model are fixed for the life of the server — so a warm
        request pays a dict lookup: no thread-pool hop, no query
        re-parse.  Misses compute on the thread pool; a ``QueryError``
        propagates and is never cached.
        """
        memo_key = (request.query, request.resolution)
        known = self._fingerprints.get(memo_key)
        if known is None:
            known = await asyncio.get_running_loop().run_in_executor(
                None, self._surface_fingerprint, request
            )
            if len(self._fingerprints) >= FINGERPRINT_MEMO_LIMIT:
                # Oldest out: the memo only saves a re-parse, so plain
                # insertion order is enough to keep it bounded.
                del self._fingerprints[next(iter(self._fingerprints))]
            self._fingerprints[memo_key] = known
        return known

    def _surface_fingerprint(self, request):
        """Content fingerprint of the request's surface.

        Query parse + grid metadata + a hash: it touches the catalog,
        so :meth:`_surface_of` runs it on the thread pool, once per
        distinct ``(query, resolution)``.
        """
        import hashlib
        import json

        from repro.bench import workloads

        disk_key, num_points = workloads.surface_key(
            request.query, profile=self.config.profile,
            resolution=request.resolution,
        )
        digest = hashlib.sha256(
            json.dumps(disk_key, sort_keys=True).encode("ascii")
        ).hexdigest()[:16]
        return f"{request.query}-{digest}", num_points

    async def _build_surface(self, request, tracer=None):
        """Single-flight leader body: build in the pool, into the archive.

        The build's worker spans land in the *leader's* trace (coalesced
        waiters share the surface, not the spans — the build belongs to
        the request that triggered it).
        """
        loop = asyncio.get_running_loop()
        spec = {
            "query": request.query,
            "profile": self.config.profile,
            "resolution": request.resolution,
            "cancel_slot": None,  # shared builds outlive any one request
        }
        if tracer is not None:
            spec["trace"] = tracer.context().to_wire()
        result = await loop.run_in_executor(
            self._pool, worker.build_surface, spec
        )
        if tracer is not None:
            tracer.splice(result.get("spans"))
        if result.get("metrics"):
            REGISTRY.merge(result["metrics"])
        if result["outcome"] != "ok":
            raise ReproError(
                result.get("error", f"build {result['outcome']}")
            )
        return result.get("nbytes", 0)


def _private_archive_dir():
    """A fresh archive directory for the pool, or None when the
    configured cache is on and writable.

    Workers share surfaces only through the archive, so a server whose
    cache is off or unusable gives its workers a directory of its own
    (removed by :meth:`DiscoveryServer.stop`).
    """
    if settings.get("REPRO_CACHE"):
        directory = settings.get("REPRO_CACHE_DIR")
        try:
            os.makedirs(directory, exist_ok=True)
            tempfile.TemporaryFile(dir=directory).close()
            return None
        except OSError:
            pass
    return tempfile.mkdtemp(prefix="repro-serve-")


async def serve_forever(config):
    """Run a server until SIGINT/SIGTERM, then drain (CLI entry)."""
    import signal

    server = DiscoveryServer(config)
    # Handlers go in before the pool exists and before anyone is told
    # the address: a SIGTERM sent the instant the listening line appears
    # must drain, not kill the server by default action under its
    # forked workers.
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, stop.set)
    host, port = await server.start()
    print(f"repro serve listening on http://{host}:{port} "
          f"({config.workers} workers, queue {config.queue_limit}, "
          f"tenant quota {config.tenant_quota})", flush=True)
    await stop.wait()
    print("draining...", flush=True)
    await server.stop(drain=True)
    print("stopped", flush=True)
    return 0
