"""Shared-memory ESS surfaces for the discovery server's pool workers.

The server's process pool outlives every surface it serves, so surfaces
travel between processes as *offers*: a pool worker that just built an
ESS copies ``optimal_cost`` / ``plan_ids`` into
``multiprocessing.shared_memory`` segments with
:func:`export_for_transfer` and ships the (picklable) offer back to the
server, which owns segment lifetime from then on — passing the offer
along with later requests (workers adopt it via :func:`register_offer`)
and unlinking the segments on LRU eviction (:func:`unlink_offer`).
Unlinking is safe while attachments are live: POSIX shm only drops the
*name*; existing mappings stay valid until their handles close.

:func:`repro.perf.cache.fetch` consults the process's offer registry
before the disk archive, so a worker whose in-process memo misses
reconstructs the identical ESS from the mapped segments — zero copies,
zero optimizer calls, and (unlike the disk path) zero decompression.
Plan trees are never shared: the offer carries plan *keys* (small
strings) and workers reparse them, exactly like the archive path, so
plan ids match the exporter's ordering.  Any attach failure falls
through to the disk archive — the tier degrades, never breaks.

Attachments are untracked by the ``resource_tracker`` — Python 3.11 has
no ``track=False`` — so a worker exiting cannot reap segments the
server still serves.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.obs.metrics import REGISTRY
from repro.obs.trace import span as obs_span

#: Offer registry: content-key digest -> offer dict.
_OFFERS = {}

#: Ceiling on offers a process keeps registered
#: (:func:`register_offer` evicts least-recently-registered beyond it).
#: Bounds long-lived pool workers, which otherwise accumulate an offer
#: — grid values, plan keys and all — for every surface they ever
#: served, long after the server evicted the segments themselves.
_OFFER_LIMIT = 32


@contextmanager
def _untracked():
    """Suppress resource_tracker traffic for shared-memory segments.

    Python 3.11's ``SharedMemory`` cannot attach untracked
    (``track=False`` arrives in 3.13), and the register-then-unregister
    workaround races when two processes attach the same segment
    concurrently: the tracker's name cache is a *set*, so the duplicate
    register is absorbed and the second unregister raises (a harmless
    but noisy KeyError traceback in the tracker process).  Suppressing
    registration at attach time has no such window.  ``unregister`` is
    silenced too: ``SharedMemory.unlink()`` unregisters internally,
    which would hit the same KeyError when the unlinking process never
    registered the name (the serving tier unlinks segments its pool
    workers created).  Only the ``shared_memory`` rtype is skipped, and
    only inside this block — creators keep normal tracking until they
    hand ownership off.
    """
    original_register = resource_tracker.register
    original_unregister = resource_tracker.unregister

    def _skip_register(name, rtype):
        if rtype != "shared_memory":
            original_register(name, rtype)

    def _skip_unregister(name, rtype):
        if rtype != "shared_memory":
            original_unregister(name, rtype)

    resource_tracker.register = _skip_register
    resource_tracker.unregister = _skip_unregister
    try:
        yield
    finally:
        resource_tracker.register = original_register
        resource_tracker.unregister = original_unregister


def _digest(key):
    """Stable digest of an :func:`~repro.ess.persistence.ess_cache_key`."""
    return hashlib.sha256(
        json.dumps(key, sort_keys=True).encode("ascii")
    ).hexdigest()


def attach_if_offered(key, query, cost_model):
    """Reconstruct an ESS from a live offer for ``key``, or None.

    Any attachment failure (segment gone, shape mismatch) returns None
    so the caller falls through to the disk archive / rebuild.
    """
    digest = _digest(key)
    offer = _OFFERS.get(digest)
    if offer is None:
        return None
    try:
        with obs_span("cache.shm_attach", key=key):
            ess = _attach(offer, query, cost_model)
    except Exception:
        # The segments are gone (unlinked/evicted by their owner) or
        # the offer is inconsistent; drop it so a long-lived worker
        # doesn't pay a doomed attach on every future fetch of this key.
        _OFFERS.pop(digest, None)
        REGISTRY.incr("ess_shm_attach_failed")
        return None
    REGISTRY.incr("ess_shm_hit")
    return ess


def _attach(offer, query, cost_model):
    from repro.ess.grid import ESSGrid
    from repro.ess.ocs import ESS
    from repro.ess.persistence import parse_plan_key

    num_points = int(offer["num_points"])
    handles = []
    for field in ("optimal_cost", "plan_ids"):
        # Attach untracked (see _untracked) so this process exiting
        # does not reap segments their owner still serves.
        with _untracked():
            segment = shared_memory.SharedMemory(
                name=offer["segments"][field]
            )
        handles.append(segment)
    optimal_cost = np.ndarray(
        (num_points,), dtype=np.float64, buffer=handles[0].buf
    )
    plan_ids = np.ndarray(
        (num_points,), dtype=np.int32, buffer=handles[1].buf
    )
    grid = ESSGrid(query.num_epps, resolution=offer["resolution"])
    for dim, values in enumerate(offer["grid_values"]):
        grid.values[dim] = np.asarray(values, dtype=float)
    grid.invalidate_caches()
    if grid.num_points != num_points:
        raise ValueError("shared surface does not match its grid")
    plans = [parse_plan_key(str(k), query) for k in offer["plan_keys"]]
    ess = ESS(
        query=query,
        grid=grid,
        cost_model=cost_model,
        optimal_cost=optimal_cost,
        plan_ids=plan_ids,
        plans=plans,
    )
    # The arrays alias the segments; pin the handles to the ESS so the
    # mapping outlives this frame.
    ess._shm_handles = handles
    return ess


def live_offers():
    """Number of currently registered offers (introspection/tests)."""
    return len(_OFFERS)


def export_for_transfer(key, ess):
    """Create shared segments for ``ess`` and return a picklable offer.

    The creating process keeps *no* handles and *no* registry entry:
    every segment is unregistered from this process's
    ``resource_tracker`` and its local mapping closed, so the segments
    survive the creating pool worker exiting and belong to whoever
    received the offer.  Returns ``None`` for lazy surfaces (sharing
    one would pay the full sweep lazy mode exists to avoid) or on any
    shared-memory failure (the caller falls back to the disk archive —
    the tier degrades, never breaks).
    """
    if getattr(ess, "is_lazy", False):
        return None
    grid = ess.grid
    arrays = {
        "optimal_cost": np.asarray(ess.optimal_cost, dtype=float),
        "plan_ids": np.asarray(ess.plan_ids, dtype=np.int32),
    }
    names = {}
    created = []
    nbytes = 0
    try:
        for field, source in arrays.items():
            segment = shared_memory.SharedMemory(
                create=True, size=source.nbytes
            )
            created.append(segment)
            view = np.ndarray(
                source.shape, dtype=source.dtype, buffer=segment.buf
            )
            view[:] = source
            names[field] = segment.name
            nbytes += source.nbytes
    except Exception:
        for segment in created:
            try:
                segment.close()
                segment.unlink()
            except OSError:
                pass
        REGISTRY.incr("ess_shm_publish_failed")
        return None
    for segment in created:
        try:
            resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:
            pass
        segment.close()
    REGISTRY.incr("ess_shm_exported")
    return {
        "key": key,
        "segments": names,
        "num_points": grid.num_points,
        "nbytes": int(nbytes),
        "plan_keys": list(ess.plan_keys),
        "grid_values": [
            np.array(grid.values[d]) for d in range(grid.num_dims)
        ],
        "resolution": list(grid.resolution),
    }


def register_offer(offer):
    """Adopt a transferred offer into this process's registry.

    Idempotent; after this, :func:`repro.perf.cache.fetch` for the
    offer's key attaches over shared memory ahead of the disk archive.
    A registered offer whose segments were since unlinked simply fails
    to attach and the cache falls through — no cleanup protocol needed.

    The registry is bounded (:data:`_OFFER_LIMIT`): beyond the
    limit the least-recently-registered *transferred* offers are
    forgotten — dropping a registry entry never touches the segments,
    whose lifetime belongs to the offer's owner (the serving tier).
    """
    digest = _digest(offer["key"])
    _OFFERS.pop(digest, None)  # re-registration refreshes recency
    _OFFERS[digest] = offer
    while len(_OFFERS) > _OFFER_LIMIT:
        oldest = next(iter(_OFFERS))
        if oldest == digest:
            break
        _OFFERS.pop(oldest)


def unlink_offer(offer):
    """Free a transferred offer's segments (best-effort, idempotent).

    The serving tier calls this on LRU eviction and shutdown.  Workers
    holding live attachments are unaffected (their mappings survive the
    unlink); workers that try to attach afterwards fall back to disk.
    """
    _OFFERS.pop(_digest(offer["key"]), None)
    freed = 0
    for name in offer["segments"].values():
        try:
            with _untracked():
                segment = shared_memory.SharedMemory(name=name)
                segment.close()
                segment.unlink()
            freed += 1
        except OSError:
            continue
    return freed
