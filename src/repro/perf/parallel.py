"""Multiprocess exhaustive-sweep engine.

The evaluation pipeline (Figures 8-13) is dominated by exhaustive
per-grid-location discovery sweeps.  This module fans one sweep across
worker processes: the flat-index list is chunked, each worker evaluates
its chunks with :func:`~repro.core.discovery.sweep_suboptimality` — the
frontier-batched engine of :mod:`repro.perf.batch`, so a worker's cost
scales with the *states* its chunk touches, not with its point count —
and the parent reassembles the per-location sub-optimality array in
order.

Workers get the algorithm by ``fork``: the pool is created from the
fork start method with the live algorithm as its initializer argument,
which a forked worker inherits rather than unpickles.  Each worker
therefore sweeps the parent's very object — surface, contours, prior
and planner caches — and the result is exactly the serial one.

Fan-out runs only when the caller names it (``engine="parallel"`` in
:func:`~repro.core.mso.evaluate_algorithm`), asks for more than one
worker, and the batch engine covers the algorithm's exact type
(subclasses such as randomized step orders keep the serial loop).
Anything else, and any pool failure, returns None and the caller
sweeps serially.

``REPRO_WORKERS`` (resolved by :mod:`repro.settings`) sets the worker
count: unset, ``0`` or ``1`` keep the serial path; ``auto`` uses the
CPU count.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro import settings
from repro.obs import trace as tracing
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span as obs_span
from repro.perf.batch import engine_for

#: Chunks per worker: >1 so faster workers steal the tail of the grid.
CHUNKS_PER_WORKER = 4


def worker_count(explicit=None):
    """Resolve the worker count (explicit arg beats ``REPRO_WORKERS``)."""
    workers = settings.get("REPRO_WORKERS", explicit)
    if workers == "auto":
        workers = os.cpu_count() or 1
    return max(1, workers)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: The algorithm this pool worker sweeps, inherited from the parent.
_ALGORITHM = None


def _adopt(algorithm):
    global _ALGORITHM
    _ALGORITHM = algorithm


def _evaluate_chunk(task):
    from repro.core.discovery import sweep_suboptimality

    flats, trace_wire = task
    # Reset the worker's global profile so this chunk's summary carries
    # exactly its own deltas — the parent merges every chunk summary, so
    # nothing a worker measures is dropped and nothing is double-counted.
    # (Pool workers run only chunks, so the reset clobbers no one.)
    REGISTRY.reset()
    # Join the parent's trace when one rides in the task: spans minted
    # here ship home with the chunk result, exactly like the registry
    # summary (see repro.obs.trace — cross-process propagation).
    tracer = tracing.child_tracer(trace_wire)
    previous = tracing.install_tracer(tracer) if tracer is not None else None
    try:
        with tracing.span("sweep.worker", pid=os.getpid(),
                          points=len(flats)):
            out = np.asarray(sweep_suboptimality(_ALGORITHM, flats),
                             dtype=float)
    finally:
        if tracer is not None:
            tracing.install_tracer(previous)
    spans = [s.to_record() for s in tracer.spans] if tracer is not None \
        else None
    return out, REGISTRY.summary(), spans


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

def parallel_suboptimality(algorithm, flats, workers):
    """Fan a sweep of ``algorithm`` across ``workers`` forked processes.

    Returns the ``(len(flats),)`` sub-optimality array in input order,
    or None when fan-out does not apply (one worker, or a type the batch
    engine does not cover) or the pool fails — the caller then sweeps
    serially.
    """
    flats = np.asarray(flats, dtype=np.int64)
    workers = min(int(workers), len(flats))
    if workers <= 1 or engine_for(algorithm) is None:
        return None
    num_chunks = min(len(flats), workers * CHUNKS_PER_WORKER)
    chunks = np.array_split(flats, num_chunks)
    try:
        with REGISTRY.phase("parallel_sweep"):
            with obs_span("sweep.parallel", workers=workers,
                          points=len(flats), chunks=num_chunks):
                # Captured inside the sweep.parallel span so worker
                # spans parent onto it in the merged tree.
                ctx = tracing.current_context()
                wire = ctx.to_wire() if ctx is not None else None
                with ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=multiprocessing.get_context("fork"),
                    initializer=_adopt,
                    initargs=(algorithm,),
                ) as pool:
                    results = list(
                        pool.map(_evaluate_chunk,
                                 [(c, wire) for c in chunks])
                    )
    except Exception:
        REGISTRY.incr("parallel_sweep_fallback")
        return None
    parts = [part for part, _, _ in results]
    # Fold every worker chunk's phase timings and counters back into the
    # parent profile — before this merge, worker measurements vanished
    # with the pool.  Shipped spans splice into the live trace the same
    # way.
    active = tracing.active_tracer()
    for _, worker_summary, worker_spans in results:
        REGISTRY.merge(worker_summary)
        if active is not None and worker_spans:
            active.splice(worker_spans)
    REGISTRY.incr("parallel_sweeps")
    REGISTRY.incr("parallel_sweep_points", len(flats))
    REGISTRY.incr("parallel_sweep_workers", workers)
    return np.concatenate(parts)
