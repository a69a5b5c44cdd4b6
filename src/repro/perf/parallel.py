"""Multiprocess exhaustive-sweep engine.

The evaluation pipeline (Figures 8-13) is dominated by exhaustive
per-grid-location discovery sweeps.  This module fans those sweeps
across worker processes: the flat-index range is chunked, each worker
*reconstructs* its ESS and algorithm from the persistent archive /
workload registry (a picklable :class:`SweepSpec` — live plan trees are
never pickled across the process boundary), evaluates its chunks, and
the parent reassembles the per-location sub-optimality array in order.
Inside each worker the chunk is evaluated with the frontier-batched
engine of :mod:`repro.perf.batch` when it covers the algorithm — the
chunk's locations propagate as a set through the shared discovery state
machine, so a worker's cost scales with the *states* its chunk touches,
not with its point count — falling back to the per-point loop otherwise.

Results are exactly the serial ones: discovery is deterministic given
the ESS surface, and the persisted archive round-trips the surface
bit-identically.

Fan-out only happens when it can win.  :func:`fanout_decision` is the
cost guard: it keeps the sweep serial on single-CPU hosts, for sweeps
under :data:`MIN_PARALLEL_POINTS` locations, and when the per-worker
share falls under :data:`MIN_POINTS_PER_WORKER` (pool startup plus
per-worker ESS reconstruction would dominate — the PR-1 benchmark
measured fan-out at 0.62-0.67x of serial on a 1-CPU host).  Every skip
is recorded in registry counters (``parallel_sweep_skipped`` plus a
``parallel_sweep_skip_<reason>`` breakdown) so ``/metrics`` and
``repro stats`` report the decision honestly.

Knobs:

* ``REPRO_WORKERS`` — worker processes for exhaustive sweeps.  Unset,
  ``0`` or ``1`` keep the serial path; ``auto`` uses the CPU count.
* ``REPRO_FORCE_PARALLEL`` — ``1`` bypasses the cost guard (benchmark
  and test harnesses that must exercise the pool machinery regardless
  of the host).
* serial fallback — any worker-side failure (unpicklable spec, missing
  archive, pool start failure) silently falls back to the serial sweep.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.obs import trace as tracing
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span as obs_span

#: Sweeps smaller than this stay serial even when workers are enabled —
#: pool startup plus per-worker ESS reconstruction would dominate.
MIN_PARALLEL_POINTS = 256

#: Minimum locations per worker for fan-out to amortize its overheads;
#: the worker count is clamped down (or fan-out skipped) below it.
MIN_POINTS_PER_WORKER = 64

#: Chunks per worker: >1 so faster workers steal the tail of the grid.
CHUNKS_PER_WORKER = 4


def worker_count(explicit=None):
    """Resolve the worker count (explicit arg beats ``REPRO_WORKERS``)."""
    if explicit is not None:
        return max(1, int(explicit))
    raw = os.environ.get("REPRO_WORKERS", "").strip().lower()
    if not raw or raw == "0":
        return 1
    if raw == "auto":
        return max(1, os.cpu_count() or 1)
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(
            f"REPRO_WORKERS must be an integer or 'auto', got {raw!r}"
        ) from None


def force_parallel():
    """Whether ``REPRO_FORCE_PARALLEL`` bypasses the fan-out cost guard."""
    raw = os.environ.get("REPRO_FORCE_PARALLEL", "").strip().lower()
    return raw in ("1", "true", "on", "yes")


def fanout_decision(num_points, workers, cpus=None):
    """The fan-out cost guard: can a multiprocess sweep win here?

    Returns ``(effective_workers, skip_reason)``: a worker count > 1
    with ``skip_reason=None`` when fan-out is worth attempting, or
    ``(1, reason)`` when the sweep should stay serial — because only
    one worker was requested (``"one_worker"``), the host exposes a
    single CPU (``"single_cpu"``), the sweep is too small overall
    (``"small_sweep"``), or the per-worker share is below amortization
    (``"below_amortization"``).  ``REPRO_FORCE_PARALLEL=1`` bypasses
    everything but the worker-count floor.
    """
    workers = min(int(workers), max(1, int(num_points)))
    if workers <= 1:
        return 1, "one_worker"
    if force_parallel():
        return workers, None
    if cpus is None:
        cpus = os.cpu_count() or 1
    if cpus <= 1:
        return 1, "single_cpu"
    if num_points < MIN_PARALLEL_POINTS:
        return 1, "small_sweep"
    affordable = int(num_points) // MIN_POINTS_PER_WORKER
    if affordable < 2:
        return 1, "below_amortization"
    return min(workers, affordable), None


@dataclass(frozen=True)
class SweepSpec:
    """A picklable recipe for rebuilding an algorithm in a worker.

    ``kind`` selects the rebuild path: ``"workload"`` goes through
    :func:`repro.bench.workloads.load` (which hits the persistent ESS
    cache), ``"wallclock"`` through
    :func:`repro.bench.wallclock.build_wallclock_setup`, and
    ``"conformance"`` through
    :func:`repro.conformance.workloads.build_conformance_instance`
    (the randomized conformance suite's seeded builds).  ``algorithm``
    names the discovery algorithm (``pb``/``sb``/``ab``) and
    ``algo_kwargs`` its extra constructor arguments.
    """

    kind: str
    build_kwargs: tuple  # sorted (name, value) pairs, hashable
    algorithm: str
    algo_kwargs: tuple = field(default_factory=tuple)


#: Extra algorithm factories (name -> class) added at runtime, e.g. by
#: :mod:`repro.arena.rivals`.  Worker processes start with this empty,
#: so :func:`_factories` also imports the arena module — a spec naming
#: a rival rebuilds cleanly in a fresh worker.
_EXTRA_FACTORIES = {}


def register_algorithm_factory(name, factory):
    """Register an algorithm class under a spec name.

    The class must be constructible as ``factory(ess, contours,
    **algo_kwargs)``; instances may expose ``spec_kwargs()`` returning
    picklable constructor kwargs for the worker-side rebuild.
    """
    _EXTRA_FACTORIES[str(name)] = factory


def _factories():
    from repro.core.aligned_bound import AlignedBound
    from repro.core.plan_bouquet import PlanBouquet
    from repro.core.spill_bound import SpillBound

    try:
        import repro.arena.rivals  # noqa: F401  (registers its factories)
    except ImportError:  # pragma: no cover - arena is part of the tree
        pass
    factories = {
        "pb": PlanBouquet,
        "sb": SpillBound,
        "ab": AlignedBound,
    }
    factories.update(_EXTRA_FACTORIES)
    return factories


def spec_for(algorithm):
    """Derive a :class:`SweepSpec` from a live algorithm, or None.

    Requires the algorithm's ESS to carry build provenance (attached by
    the workload registry / wallclock setup) and the algorithm to be one
    of the three stock discovery classes with contours matching the
    provenance — anything else (hand-built ESS, subclassed algorithms,
    mismatched contour ratios) evaluates serially.
    """
    ess = getattr(algorithm, "ess", None)
    provenance = getattr(ess, "provenance", None)
    if not provenance:
        return None
    name = None
    for key, cls in _factories().items():
        if type(algorithm) is cls:
            name = key
            break
    if name is None:
        return None
    contours = getattr(algorithm, "contours", None)
    if contours is None:
        return None
    if contours.cost_ratio != provenance.get("cost_ratio"):
        return None
    algo_kwargs = {}
    if name == "pb":
        algo_kwargs["lam"] = algorithm.lam
    spec_kwargs = getattr(algorithm, "spec_kwargs", None)
    if spec_kwargs is not None:
        algo_kwargs.update(spec_kwargs())
    prior = getattr(algorithm, "prior", None)
    if prior is not None and prior.is_active:
        # Grid-independent parameters only: the worker rebuilds the
        # prior with prior_from_spec and discretizes to the same pmf,
        # keeping the fan-out bit-identical to the in-process engines.
        algo_kwargs["prior"] = prior.spec()
    return SweepSpec(
        kind=provenance["kind"],
        build_kwargs=tuple(sorted(provenance["build_kwargs"].items())),
        algorithm=name,
        algo_kwargs=tuple(sorted(algo_kwargs.items())),
    )


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: Per-process algorithm cache: a worker serves many chunks of the same
#: sweep and must rebuild its ESS (from the persisted archive or the
#: forked registry) only once.
_WORKER_ALGORITHMS = {}


def _build_algorithm(spec):
    cached = _WORKER_ALGORITHMS.get(spec)
    if cached is not None:
        return cached
    build_kwargs = dict(spec.build_kwargs)
    if spec.kind == "workload":
        from repro.bench import workloads

        instance = workloads.load(**build_kwargs)
        ess, contours = instance.ess, instance.contours
    elif spec.kind == "wallclock":
        from repro.bench.wallclock import build_wallclock_setup

        setup = build_wallclock_setup(**build_kwargs)
        ess, contours = setup.ess, setup.contours
    elif spec.kind == "conformance":
        from repro.conformance.workloads import build_conformance_instance

        instance = build_conformance_instance(**build_kwargs)
        ess, contours = instance.ess, instance.contours
    elif spec.kind == "adversarial":
        from repro.arena.adversarial import build_adversarial_instance

        instance = build_adversarial_instance(**build_kwargs)
        ess, contours = instance.ess, instance.contours
    else:
        raise ValueError(f"unknown sweep spec kind {spec.kind!r}")
    factories = _factories()
    factory = factories.get(spec.algorithm)
    if factory is None:
        from repro.errors import ReproError

        raise ReproError(
            f"sweep spec names unregistered algorithm "
            f"{spec.algorithm!r}; registered: {sorted(factories)}"
        )
    algo_kwargs = dict(spec.algo_kwargs)
    if "prior" in algo_kwargs:
        from repro.prior import prior_from_spec

        algo_kwargs["prior"] = prior_from_spec(algo_kwargs["prior"])
    algorithm = factory(ess, contours, **algo_kwargs)
    _WORKER_ALGORITHMS.clear()  # one live sweep per worker is the norm
    _WORKER_ALGORITHMS[spec] = algorithm
    return algorithm


def _evaluate_chunk(task):
    spec, flats, trace_wire = task
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
            algorithm = _build_algorithm(spec)
            # Workers chunk *states*, not points: the chunk's locations
            # propagate as a set through the shared discovery state
            # machine, so the cost of a chunk scales with the states it
            # touches.
            from repro.core.discovery import sweep_suboptimality

            out = np.asarray(sweep_suboptimality(algorithm, flats),
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

def parallel_suboptimality(spec, flats, workers, ess=None):
    """Fan a sweep across ``workers`` processes.

    When the caller hands over its live ``ess`` (and the surface's
    provenance carries a content key), the parent exports the cost
    arrays to shared memory first — workers attach to that one surface
    through the cache's shm tier instead of rebuilding or re-reading
    grids per process (:mod:`repro.perf.shm`).

    Returns the ``(len(flats),)`` sub-optimality array in input order,
    or None when the parallel path is unavailable (caller falls back to
    the serial loop).
    """
    flats = np.asarray(flats, dtype=np.int64)
    workers, skip = fanout_decision(len(flats), workers)
    if skip is not None:
        REGISTRY.incr("parallel_sweep_skipped")
        REGISTRY.incr(f"parallel_sweep_skip_{skip}")
        return None
    surface = None
    if ess is not None:
        disk_key = getattr(ess, "provenance", {}).get("disk_key")
        if disk_key is not None:
            from repro.perf import shm

            surface = shm.publish(disk_key, ess)
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
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    results = list(
                        pool.map(_evaluate_chunk,
                                 [(spec, c, wire) for c in chunks])
                    )
    except Exception:
        REGISTRY.incr("parallel_sweep_fallback")
        return None
    finally:
        if surface is not None:
            surface.close()
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
