"""The concurrent in-memory ESS surface tier.

Layered over the persistent archive cache (:mod:`repro.perf.cache`),
this is the shared, contended resource at the heart of the discovery
server: it records which eager surfaces have been built into the
archive, keyed by the same content fingerprint as the archive
(:func:`repro.bench.workloads.surface_key`).  Pool workers fetch a built
surface from the archive, whose mmapped sidecars they share through the
page cache.

Guarantees:

* **single-flight** — N simultaneous requests for the same fingerprint
  pay exactly one ESS build: the first requester becomes the *leader*
  and launches the build task, every later one awaits the same future
  (``serve_surface_coalesced_total`` counts them).  The build runs as
  an independent asyncio task, so a leader killed by its budget does
  not abort the build the coalesced waiters depend on.
* **bounded** — entries are evicted LRU by their surfaces' array bytes
  (``REPRO_SERVE_CACHE_MB``).  Eviction only forgets the entry: the
  archive stays, and the next request for it is a build that fetches
  the archive instead of sweeping.
* **retrying, never caching an error** — a build that fails outright is
  forgotten, so the next request retries.

All tier state is touched only from the server's event loop, so no
locks are needed here; the thread-safety burden sits in
:class:`~repro.obs.metrics.MetricsRegistry` (worker summaries merge on
executor threads) and :mod:`repro.perf.cache`.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict

from repro import settings
from repro.obs.metrics import REGISTRY

#: Default resident-bytes budget for the tier (``REPRO_SERVE_CACHE_MB``).
DEFAULT_CACHE_MB = settings.SETTINGS["REPRO_SERVE_CACHE_MB"].default


class _Entry:
    __slots__ = ("future", "nbytes")

    def __init__(self, future):
        self.future = future
        self.nbytes = 0


class SurfaceTier:
    """Single-flight, byte-bounded LRU record of built ESS surfaces."""

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

        True for a ready surface (counted and LRU-touched exactly as an
        :meth:`acquire` hit), so a warm request never suspends for the
        tier.
        """
        if self._closed:
            raise RuntimeError("surface tier is closed")
        entry = self._entries.get(fingerprint)
        if entry is None or not entry.future.done() \
                or entry.future.exception() is not None:
            return False
        self._entries.move_to_end(fingerprint)
        REGISTRY.incr("serve_surface_hits")
        return True

    async def acquire(self, fingerprint, builder):
        """Make sure ``fingerprint`` is built, building at most once.

        ``builder`` is a zero-argument coroutine function returning the
        surface's array bytes; it runs in its own task so requester
        cancellation never aborts a shared build.

        Returns the source: ``hit``, ``coalesced`` or ``built``.  A
        failed build raises to the caller *after* the tier forgot the
        entry (next request retries).
        """
        if self.lookup(fingerprint):
            return "hit"
        entry = self._entries.get(fingerprint)
        if entry is not None:
            REGISTRY.incr("serve_surface_coalesced")
            await asyncio.shield(entry.future)
            return "coalesced"
        loop = asyncio.get_running_loop()
        entry = _Entry(loop.create_future())
        self._entries[fingerprint] = entry
        REGISTRY.incr("serve_surface_builds")
        loop.create_task(self._build(fingerprint, entry, builder))
        await asyncio.shield(entry.future)
        return "built"

    async def _build(self, fingerprint, entry, builder):
        try:
            nbytes = await builder()
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
        if not entry.future.done():
            entry.future.set_result(None)
        if self._closed or self._entries.get(fingerprint) is not entry:
            # close() ran while the build was in flight: nothing
            # references this entry any more, so it is not counted.
            return
        entry.nbytes = int(nbytes or 0)
        self._resident += entry.nbytes
        self._evict(keep=fingerprint)
        self._publish_gauges()

    # -- eviction and shutdown -----------------------------------------

    def _evict(self, keep=None):
        """Forget least-recently-used ready entries over the budget.

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
        REGISTRY.incr("serve_surface_evictions")
        self._publish_gauges()

    def invalidate(self, fingerprint):
        """Drop one ready entry (tests and cache-poisoning drills)."""
        entry = self._entries.get(fingerprint)
        if entry is not None and entry.future.done():
            self._drop(fingerprint)

    def close(self):
        """Forget every ready surface; in-flight builds resolve moot."""
        self._closed = True
        self._entries.clear()
        self._resident = 0
        self._publish_gauges()
