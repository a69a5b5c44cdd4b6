"""The concurrent in-memory ESS surface tier.

Layered over the persistent archive cache (:mod:`repro.perf.cache`),
this is the shared, contended resource at the heart of the discovery
server: eager surfaces live in ``multiprocessing.shared_memory``
segments owned by the *server* process, keyed by the same content
fingerprint as the disk archive (:func:`repro.bench.workloads.
surface_key`), and handed to pool workers zero-copy through the
:mod:`repro.perf.shm` offer registry.

Guarantees:

* **single-flight** — N simultaneous requests for the same fingerprint
  pay exactly one ESS build: the first requester becomes the *leader*
  and launches the build task, every later one awaits the same future
  (``serve_surface_coalesced_total`` counts them).  The build runs as
  an independent asyncio task, so a leader killed by its budget does
  not abort the build the coalesced waiters depend on.
* **bounded** — entries are evicted LRU by resident segment bytes
  (``REPRO_SERVE_CACHE_MB``).  Eviction unlinks the segments; workers
  holding live attachments are untouched (POSIX shm semantics), and
  workers that attach too late fall through to the disk archive.
* **degrading, never breaking** — a build whose shared-memory export
  fails still resolves (offer ``None``); requests proceed and workers
  load from the disk archive instead.  A build that fails outright is
  forgotten, so the next request retries rather than caching the error.

All tier state is touched only from the server's event loop, so no
locks are needed here; the thread-safety burden sits in
:class:`~repro.obs.metrics.MetricsRegistry` (worker summaries merge on
executor threads) and :mod:`repro.perf.cache`.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict

from repro.obs.metrics import REGISTRY
from repro.perf import shm

#: Default resident-bytes budget for the tier (``REPRO_SERVE_CACHE_MB``).
DEFAULT_CACHE_MB = 256


class _Entry:
    __slots__ = ("future", "offer", "nbytes", "num_points")

    def __init__(self, future):
        self.future = future
        self.offer = None
        self.nbytes = 0
        self.num_points = 0


class SurfaceTier:
    """Single-flight, byte-bounded LRU cache of shared ESS surfaces."""

    def __init__(self, limit_bytes=DEFAULT_CACHE_MB * 1024 * 1024):
        self.limit_bytes = int(limit_bytes)
        self._entries = OrderedDict()
        self._resident = 0
        self._closed = False

    # -- introspection -------------------------------------------------

    @property
    def resident_bytes(self):
        return self._resident

    def stats(self):
        ready = sum(1 for e in self._entries.values() if e.future.done())
        return {
            "entries": len(self._entries),
            "ready": ready,
            "building": len(self._entries) - ready,
            "resident_bytes": self._resident,
            "limit_bytes": self.limit_bytes,
        }

    def _publish_gauges(self):
        REGISTRY.gauge("serve_cache_resident_bytes", self._resident)
        REGISTRY.gauge("serve_cache_entries", len(self._entries))

    # -- the single-flight path ----------------------------------------

    def lookup(self, fingerprint):
        """The hit half of :meth:`acquire`, without a coroutine.

        Returns ``(True, offer_or_None)`` for a ready surface (counted
        and LRU-touched exactly as an :meth:`acquire` hit) and
        ``(False, None)`` otherwise, so a warm request never suspends
        for the tier.
        """
        if self._closed:
            raise RuntimeError("surface tier is closed")
        entry = self._entries.get(fingerprint)
        if entry is None or not entry.future.done() \
                or entry.future.exception() is not None:
            return False, None
        self._entries.move_to_end(fingerprint)
        REGISTRY.incr("serve_surface_hits")
        return True, entry.offer

    async def acquire(self, fingerprint, builder):
        """The offer for ``fingerprint``, building at most once.

        ``builder`` is a zero-argument coroutine function returning
        ``(offer_or_None, nbytes, num_points)``; it runs in its own
        task so requester cancellation never aborts a shared build.

        Returns ``(offer_or_None, source)`` where source is ``hit``,
        ``coalesced`` or ``built``.  A failed build raises to the
        caller *after* the tier forgot the entry (next request retries).
        """
        hit, offer = self.lookup(fingerprint)
        if hit:
            return offer, "hit"
        entry = self._entries.get(fingerprint)
        if entry is not None:
            REGISTRY.incr("serve_surface_coalesced")
            return await asyncio.shield(entry.future), "coalesced"
        loop = asyncio.get_running_loop()
        entry = _Entry(loop.create_future())
        self._entries[fingerprint] = entry
        REGISTRY.incr("serve_surface_builds")
        loop.create_task(self._build(fingerprint, entry, builder))
        return await asyncio.shield(entry.future), "built"

    async def _build(self, fingerprint, entry, builder):
        try:
            offer, nbytes, num_points = await builder()
        except BaseException as exc:
            # Forget the entry first so a retry can start immediately,
            # then wake every waiter with the failure.
            self._entries.pop(fingerprint, None)
            REGISTRY.incr("serve_surface_build_failures")
            if not entry.future.done():
                entry.future.set_exception(exc)
                # The leader and all coalesced waiters await through
                # shield(); if every one of them was killed first, the
                # exception would otherwise be logged as unretrieved.
                entry.future.exception()
            return
        if self._closed or self._entries.get(fingerprint) is not entry:
            # close() (or an invalidate) ran while the build was in
            # flight: nothing references this entry any more, so unlink
            # the segments here or they leak until reboot.  Waiters (all
            # moot by now) resolve with no offer and fall back to disk.
            if offer is not None:
                shm.unlink_offer(offer)
            if not entry.future.done():
                entry.future.set_result(None)
            return
        entry.offer = offer
        entry.nbytes = int(nbytes or 0)
        entry.num_points = int(num_points or 0)
        self._resident += entry.nbytes
        if not entry.future.done():
            entry.future.set_result(offer)
        self._evict(keep=fingerprint)
        self._publish_gauges()

    # -- eviction and shutdown -----------------------------------------

    def _evict(self, keep=None):
        """Unlink least-recently-used ready entries over the budget.

        The entry named by ``keep`` survives even when it alone exceeds
        the budget — evicting the surface a request is about to use
        would turn every oversized workload into a permanent miss.
        """
        while self._resident > self.limit_bytes:
            victim = None
            for fp, entry in self._entries.items():
                if fp != keep and entry.future.done() \
                        and entry.future.exception() is None:
                    victim = fp
                    break
            if victim is None:
                return
            self._drop(victim)

    def _drop(self, fingerprint):
        entry = self._entries.pop(fingerprint)
        self._resident -= entry.nbytes
        if entry.offer is not None:
            shm.unlink_offer(entry.offer)
        REGISTRY.incr("serve_surface_evictions")
        self._publish_gauges()

    def invalidate(self, fingerprint):
        """Drop one ready entry (tests and cache-poisoning drills)."""
        entry = self._entries.get(fingerprint)
        if entry is not None and entry.future.done():
            self._drop(fingerprint)

    def close(self):
        """Unlink every ready surface; in-flight builds resolve moot."""
        self._closed = True
        for fp in [fp for fp, e in self._entries.items()
                   if e.future.done() and e.future.exception() is None]:
            self._drop(fp)
        self._entries.clear()
        self._resident = 0
        self._publish_gauges()
