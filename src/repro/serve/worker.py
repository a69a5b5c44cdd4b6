"""Process-pool back-end of the discovery server.

Every function here executes inside a ``ProcessPoolExecutor`` worker.
Tasks arrive as plain dict *specs* and return plain dict *payloads*
(picklable both ways, JSON-shaped so the server can forward results
verbatim), and every task ships the worker's metrics summary home for
the server to merge — the same worker-to-parent pattern the parallel
sweep engine uses, so nothing a worker measures is dropped.

Cancellation is cooperative: the server allocates each request a slot
in a fork-inherited ``multiprocessing`` byte array and flips it on
budget expiry (or drain); workers poll the slot at phase boundaries
(task start, after workload load, every ~10 ms of synthetic service
time) and answer ``outcome: killed`` instead of finishing.  The
existing discovery substrate (:mod:`repro.core`, :mod:`repro.engine`)
runs unchanged in between checkpoints.

Resident state: a worker keeps the workload instances it has loaded
(:func:`repro.bench.workloads.load`'s memo, bounded by
:data:`MEMO_LIMIT`) and, hanging off each instance, the
algorithm objects its runs and evaluate sweeps share
(:func:`_acquire_algorithm`) and the completed sweeps of each such
object by engine (:func:`_execute`) — the compile-time half of the
paper's compile-time/run-time split, paid once per surface per worker
rather than once per request.

The surface hand-off is the archive itself: a ``build`` task constructs
the eager surface through the persistent archive cache
(:func:`repro.perf.cache.fetch_or_build`), and a later ``discover``
task's ``workloads.load`` in any worker fetches that archive, mapping
its array sidecars read-only, so the workers share one copy of the
arrays through the page cache.  When the configured cache is off or
unwritable, the server hands :func:`init_worker` a private archive
directory of its own instead.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time

import numpy as np

from repro import settings
from repro.bench import workloads
from repro.conformance.monitors import ConformanceMonitor
from repro.core.aligned_bound import AlignedBound
from repro.core.mso import evaluate_algorithm
from repro.core.native import NativeOptimizer
from repro.core.plan_bouquet import PlanBouquet
from repro.core.spill_bound import SpillBound
from repro.errors import ReproError
from repro.obs import trace as tracing
from repro.obs.metrics import REGISTRY
from repro.obs.runtrace import record_row
from repro.prior import HistoryStore, history_key, make_prior

#: Worker-side workload memo bound: above this many cached instances
#: the registry is dropped wholesale, keeping long-lived workers from
#: accumulating every surface they ever touched.
MEMO_LIMIT = 32

#: Poll interval of the cooperative-cancellation checkpoints inside
#: synthetic service time.
_CANCEL_POLL_S = 0.01

_CANCEL = None

_HISTORY = None


class CancelledByServer(Exception):
    """The server flipped this task's cancel slot (budget kill/drain)."""


def init_worker(cancel_slots, archive_dir=None):
    """Pool initializer: adopt the server's shared cancel-slot array.

    The server installs its asyncio signal handlers before it forks the
    pool, so a worker starts with the server's wake-up fd and no-op
    handlers: a signal sent to the worker would be read by the server's
    loop as its own.  Workers go back to the default dispositions.

    ``archive_dir`` is the server's private archive directory, given
    when the configured cache is off or unwritable: the worker points
    its own environment's cache at it, so surfaces one worker builds are
    fetched, not rebuilt, by the others.  The history store stays where
    the configured cache would have put it.
    """
    global _CANCEL
    _CANCEL = cancel_slots
    if archive_dir is not None:
        settings.export("REPRO_PRIOR_STORE", HistoryStore.default_path())
        settings.export("REPRO_CACHE", "1")
        settings.export("REPRO_CACHE_DIR", archive_dir)
    signal.set_wakeup_fd(-1)
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, signal.SIG_DFL)


def _checkpoint(slot):
    if _CANCEL is not None and slot is not None and _CANCEL[slot]:
        raise CancelledByServer()


def _cooperative_sleep(seconds, slot):
    """Synthetic service time that still honours cancellation."""
    deadline = time.monotonic() + seconds
    while True:
        _checkpoint(slot)
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return
        time.sleep(min(_CANCEL_POLL_S, remaining))


def _bound_memo():
    if len(workloads._CACHE) > MEMO_LIMIT:
        workloads.clear_cache()


def _make_algorithm(name, instance, prior_kind=None):
    if name == "native":
        return NativeOptimizer(instance.ess)
    prior = make_prior(prior_kind or "uniform", instance.query,
                       instance.ess)
    if name == "pb":
        return PlanBouquet(instance.ess, instance.contours, prior=prior)
    if name == "sb":
        return SpillBound(instance.ess, instance.contours, prior=prior)
    return AlignedBound(instance.ess, instance.contours, prior=prior)


def _resident_key(spec):
    """``instance.resident`` key of ``spec``'s algorithm object, or None
    for ``prior=history``, which is never resident: its pmf changes with
    every recorded observation."""
    prior_kind = spec.get("prior") or "uniform"
    if prior_kind == "history":
        return None
    return ("algorithm", spec.get("algorithm", "sb"), prior_kind)


def _acquire_algorithm(spec, instance):
    """The algorithm object answering ``spec`` on ``instance``.

    The anorexic reduction, the prior schedule and the per-state
    step/slice/line caches are compile-time artefacts of the canned
    query, so runs and evaluate sweeps share one object per
    ``(algorithm, prior kind)`` kept beside the memoised instance and
    dropped with it by :func:`_bound_memo`: a sweep pays for its
    planner state once per surface per worker, and the runs after it
    find those states warm.  The planner caches hold the same steps
    however they were filled (a loop sweep is repeated ``run`` calls on
    one object; the batch sweep plans whole levels into the same
    ``_step_cache``), so sharing changes no reply.
    Only ``prior=history`` builds a throw-away object.
    """
    key = _resident_key(spec)
    if key is None:
        return _make_algorithm(spec.get("algorithm", "sb"), instance,
                               "history")
    algorithm = instance.resident.get(key)
    if algorithm is None:
        algorithm = _make_algorithm(key[1], instance, key[2])
        instance.resident[key] = algorithm
    return algorithm


def _history_store():
    """This process's history sidecar: one append handle per worker,
    replaced when the configured path changes."""
    global _HISTORY
    path = HistoryStore.default_path()
    if _HISTORY is None or _HISTORY.path != path:
        if _HISTORY is not None:
            _HISTORY.close()
        _HISTORY = HistoryStore(path)
    return _HISTORY


def _record_history(instance, result):
    """Persist a completed discovery's actual selectivities.

    The serving tier always records — repeated tenant workloads are
    exactly where the :class:`~repro.prior.HistoryPrior` pays off.
    Best-effort: a read-only store never fails the request.
    """
    key = instance.resident.get("history_key")
    if key is None:
        key = instance.resident["history_key"] = history_key(
            instance.query, instance.ess
        )
    grid = instance.ess.grid
    try:
        _history_store().record(
            key, grid.selectivities_of(grid.flat_index(result.qa_coords))
        )
    except (OSError, ReproError):
        pass


def _load(spec):
    _bound_memo()
    return workloads.load(
        spec["query"],
        profile=spec.get("profile"),
        resolution=spec.get("resolution"),
        ess_mode=spec.get("ess_mode"),
    )


def _adopt_trace(spec):
    """Join the request's trace, if the spec carries a TraceContext.

    Installs a child tracer as this worker process's global tracer for
    the duration of one task (pool workers run tasks one at a time, so
    the install/uninstall pair cannot interleave) and returns
    ``(tracer, previous)`` for :func:`_ship_trace` to undo.
    """
    tracer = tracing.child_tracer(spec.get("trace"))
    if tracer is None:
        return None, None
    return tracer, tracing.install_tracer(tracer)


def _ship_trace(out, tracer, previous):
    """Uninstall the task's child tracer and attach its finished spans
    to the result payload (the worker-to-parent shipping lane — same
    pattern as the registry summary riding in ``out["metrics"]``)."""
    if tracer is None:
        return
    tracing.install_tracer(previous)
    out["spans"] = [s.to_record() for s in tracer.spans]
    if tracer.dropped:
        out["spans_dropped"] = tracer.dropped


# ----------------------------------------------------------------------
# Tasks
# ----------------------------------------------------------------------


def warmup():
    """Force a pool worker to exist (spawns happen lazily otherwise)."""
    return os.getpid()


def build_surface(spec):
    """Build (or archive-load) an eager ESS into the archive.

    The single-flight leader's task.
    """
    REGISTRY.reset()
    tracer, previous = _adopt_trace(spec)
    out = {"task": "build", "outcome": "ok", "started_at": time.time(),
           "pid": os.getpid()}
    try:
        with tracing.span("serve.worker.build", pid=os.getpid(),
                          query=spec.get("query", "")):
            _checkpoint(spec.get("cancel_slot"))
            _load(dict(spec, ess_mode="eager"))
    except CancelledByServer:
        out["outcome"] = "killed"
    except ReproError as exc:
        out["outcome"] = "invalid"
        out["error"] = str(exc)
    except Exception as exc:  # noqa: BLE001 - must cross the pipe
        out["outcome"] = "error"
        out["error"] = f"{type(exc).__name__}: {exc}"
    _ship_trace(out, tracer, previous)
    out["metrics"] = REGISTRY.summary()
    out["finished_at"] = time.time()
    return out


def run_discovery(spec):
    """One served discovery request: scalar run or exhaustive sweep."""
    REGISTRY.reset()
    tracer, previous = _adopt_trace(spec)
    slot = spec.get("cancel_slot")
    out = {"task": spec.get("kind", "run"), "outcome": "ok",
           "started_at": time.time(), "pid": os.getpid()}
    try:
        with tracing.span("serve.worker.discover", pid=os.getpid(),
                          query=spec.get("query", ""),
                          kind=spec.get("kind", "run"),
                          algorithm=spec.get("algorithm", "sb")):
            _checkpoint(slot)
            load_start = time.time()
            with tracing.span("worker.load", query=spec.get("query", "")):
                instance = _load(spec)
                algorithm = _acquire_algorithm(spec, instance)
            out["load_s"] = time.time() - load_start
            _checkpoint(slot)
            if spec.get("sleep_s"):
                _cooperative_sleep(float(spec["sleep_s"]), slot)
            run_start = time.time()
            out["result"] = _execute(spec, instance, algorithm)
            raw = out["result"].pop("_raw")
            if spec.get("conformance"):
                out["conformance"] = _conformance(spec, algorithm, raw)
            if spec.get("kind", "run") == "run" \
                    and spec.get("algorithm", "sb") != "native":
                _record_history(instance, raw)
            out["run_s"] = time.time() - run_start
    except CancelledByServer:
        out["outcome"] = "killed"
        out.pop("result", None)
    except ReproError as exc:
        out["outcome"] = "invalid"
        out["error"] = str(exc)
        out.pop("result", None)
    except Exception as exc:  # noqa: BLE001 - must cross the pipe
        out["outcome"] = "error"
        out["error"] = f"{type(exc).__name__}: {exc}"
        out.pop("result", None)
    _ship_trace(out, tracer, previous)
    out["metrics"] = REGISTRY.summary()
    out["finished_at"] = time.time()
    return out


def _conformance(spec, algorithm, raw):
    """Check this request's own result — the evaluate's sweep, or the
    run's execution records — and report the monitor's verdict."""
    monitor = ConformanceMonitor()
    if spec.get("kind", "run") == "evaluate":
        monitor.check_sweep(raw.suboptimality, algorithm, engine=raw.engine)
    elif spec.get("algorithm", "sb") != "native":
        monitor.check_run(raw, algorithm, engine="serve")
    return {
        "checks": dict(monitor.counters),
        "violations": [
            {"invariant": v.invariant, "message": v.message}
            for v in monitor.violations[:10]
        ],
        "num_violations": len(monitor.violations),
    }


def _execute(spec, instance, algorithm):
    """The reply's ``result`` fields, plus the raw result as ``_raw``.

    An ``evaluate`` sweep of a resident object is a pure function of the
    object and the engine asked for, so the completed sweep is kept
    beside the object (``instance.resident``, gone with it) and a repeat
    with the same engine is answered from there without sweeping
    (``serve_sweep_memo_hits``); only its ``timings`` differ.
    """
    if spec.get("kind", "run") == "evaluate":
        engine = spec.get("engine", "auto")
        key = _resident_key(spec)
        if key is not None:
            key += ("sweep", engine)
        done = instance.resident.get(key)
        with tracing.span("worker.evaluate", engine=engine,
                          memo="miss" if done is None else "hit"):
            if done is None:
                evaluation = evaluate_algorithm(algorithm, engine=engine)
                sub = np.ascontiguousarray(evaluation.suboptimality)
                done = {
                    "mso": float(evaluation.mso),
                    "aso": float(evaluation.aso),
                    "worst_location": int(evaluation.worst_location),
                    "num_points": int(sub.size),
                    "subopt_sha256": hashlib.sha256(
                        sub.tobytes()).hexdigest(),
                    "_raw": evaluation,
                }
                if key is not None:
                    instance.resident[key] = done
            else:
                REGISTRY.incr("serve_sweep_memo_hits")
        return dict(done)
    qa = spec.get("qa")
    qa = tuple(qa) if qa else instance.query.true_location()
    with tracing.span("worker.run", algorithm=spec.get("algorithm", "sb")):
        result = algorithm.run(qa, trace=True)
    return {
        "qa": [float(v) for v in qa],
        "qa_coords": [int(c) for c in result.qa_coords],
        "total_cost": float(result.total_cost),
        "optimal_cost": float(result.optimal_cost),
        "suboptimality": float(result.suboptimality),
        "num_executions": int(result.num_executions),
        "num_repeat_executions": int(result.num_repeat_executions),
        "contours_visited": int(result.contours_visited),
        "completed_plan_key": result.completed_plan_key,
        "max_penalty": float(result.max_penalty),
        "executions": [record_row(rec) for rec in result.executions or ()],
        "_raw": result,
    }
