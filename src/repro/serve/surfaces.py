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
* **remembered until shutdown** — an entry is a few dozen bytes and
  the surface's memory lives in the archive and the workers, not here,
  so a built surface stays a hit for the server's lifetime.
  ``REPRO_SERVE_CACHE_MB`` is still parsed and validated but no longer
  evicts anything.
* **retrying, never caching an error** — a build that fails outright is
  forgotten, so the next request retries.

All tier state is touched only from the server's event loop, so no
locks are needed here; the thread-safety burden sits in
:class:`~repro.obs.metrics.MetricsRegistry` (worker summaries merge on
executor threads) and :mod:`repro.perf.cache`.
"""

from __future__ import annotations

import asyncio

from repro.obs.metrics import REGISTRY


class SurfaceTier:
    """Single-flight record of the ESS surfaces built into the archive."""

    def __init__(self):
        self._entries = {}
        self._closed = False

    # -- introspection -------------------------------------------------

    def stats(self):
        ready = sum(1 for f in self._entries.values() if f.done())
        return {
            "entries": len(self._entries),
            "ready": ready,
            "building": len(self._entries) - ready,
        }

    def _publish_gauges(self):
        REGISTRY.gauge("serve_cache_entries", len(self._entries))

    # -- the single-flight path ----------------------------------------

    def lookup(self, fingerprint):
        """The hit half of :meth:`acquire`, without a coroutine.

        True for a ready surface (counted exactly as an :meth:`acquire`
        hit), so a warm request never suspends for the tier.
        """
        if self._closed:
            raise RuntimeError("surface tier is closed")
        future = self._entries.get(fingerprint)
        if future is None or not future.done() \
                or future.exception() is not None:
            return False
        REGISTRY.incr("serve_surface_hits")
        return True

    async def acquire(self, fingerprint, builder):
        """Make sure ``fingerprint`` is built, building at most once.

        ``builder`` is a zero-argument coroutine function; it runs in its
        own task so requester cancellation never aborts a shared build.

        Returns the source: ``hit``, ``coalesced`` or ``built``.  A
        failed build raises to the caller *after* the tier forgot the
        entry (next request retries).
        """
        if self.lookup(fingerprint):
            return "hit"
        future = self._entries.get(fingerprint)
        if future is not None:
            REGISTRY.incr("serve_surface_coalesced")
            await asyncio.shield(future)
            return "coalesced"
        loop = asyncio.get_running_loop()
        future = self._entries[fingerprint] = loop.create_future()
        REGISTRY.incr("serve_surface_builds")
        loop.create_task(self._build(fingerprint, future, builder))
        await asyncio.shield(future)
        return "built"

    async def _build(self, fingerprint, future, builder):
        try:
            await builder()
        except BaseException as exc:
            # Forget the entry first so a retry can start immediately,
            # then wake every waiter with the failure.
            self._entries.pop(fingerprint, None)
            REGISTRY.incr("serve_surface_build_failures")
            if not future.done():
                future.set_exception(exc)
                # The leader and all coalesced waiters await through
                # shield(); if every one of them was killed first, the
                # exception would otherwise be logged as unretrieved.
                future.exception()
            return
        if not future.done():
            future.set_result(None)
        if not self._closed:
            self._publish_gauges()

    def close(self):
        """Forget every surface; in-flight builds resolve moot."""
        self._closed = True
        self._entries.clear()
        self._publish_gauges()
