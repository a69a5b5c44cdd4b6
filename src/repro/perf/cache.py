"""Persistent, content-keyed ESS cache.

Paper Section 7 flags ESS/contour construction as "a computationally
intensive task" best amortized offline.  This module is that
amortization: built ESS surfaces are stored as format-v3
:mod:`repro.ess.persistence` archives under a cache directory, keyed by
the full content of the build — query name, per-dimension grid
resolution and ``sel_min`` floors, the cost model's value fingerprint,
and the plan-search space — so a repeated benchmark or test run skips
the optimizer sweep entirely while any change to the inputs keys a
fresh build.

Archives are always format v3: compressed metadata plus uncompressed
``.npy`` sidecars that loads memory-map, so warm loads page cost arrays
in on demand instead of decompressing whole grids.

Knobs (environment, resolved by :mod:`repro.settings`):

* ``REPRO_CACHE_DIR`` — cache directory; defaults to
  ``$XDG_CACHE_HOME/repro/ess`` (or ``~/.cache/repro/ess``).
* ``REPRO_CACHE=0`` — disable the persistent cache entirely (builds
  always run; nothing is written).

Before touching disk, :func:`fetch` consults the shared-memory offer
registry (:mod:`repro.perf.shm`): while a parallel sweep is live, its
workers attach to the parent's exported surface instead of re-reading
the archive.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading

from repro import settings
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span as obs_span

_ARCHIVE_SUFFIX = ".ess.npz"

#: Serializes every archive read against the rewrite-and-GC sequence in
#: :func:`store`.  Within one process (the concurrent serving tier runs
#: fetches and stores from many threads) a fetch can therefore never
#: observe the window where the new ``.npz`` is in place but the old
#: archive's now-stale v3 sidecars are being deleted — without the lock
#: a reader could open the *old* npz (still cached in an open handle or
#: raced just before ``os.replace``) and find its sidecar gone.
#: Cross-process racers keep the weaker best-effort guarantee the
#: atomic-rename + content-addressed-sidecar protocol already provides.
_IO_LOCK = threading.Lock()


def archive_path(key):
    """Archive path for an :func:`~repro.ess.persistence.ess_cache_key`."""
    digest = hashlib.sha256(
        json.dumps(key, sort_keys=True).encode("ascii")
    ).hexdigest()[:24]
    safe_name = "".join(
        c if c.isalnum() or c in "-_" else "-" for c in key["query_name"]
    )
    return os.path.join(settings.get("REPRO_CACHE_DIR"),
                        f"{safe_name}-{digest}{_ARCHIVE_SUFFIX}")


def fetch(key, query, cost_model):
    """Load the archived ESS for ``key``, or None on miss/corruption.

    A hit is only trusted when the archive's recorded cache key matches
    ``key`` exactly; any read/parse failure is treated as a miss (the
    entry is rebuilt and overwritten, never propagated).
    """
    from repro.perf import shm

    ess = shm.attach_if_offered(key, query, cost_model)
    if ess is not None:
        return ess
    if not settings.get("REPRO_CACHE"):
        return None
    path = archive_path(key)
    if not os.path.exists(path):
        REGISTRY.incr("ess_cache_miss")
        return None
    from repro.ess.persistence import load_ess

    try:
        with REGISTRY.phase("ess_cache_load"):
            with obs_span("cache.load", key=key), _IO_LOCK:
                ess = load_ess(path, query, cost_model=cost_model,
                               expected_key=key)
    except Exception:
        REGISTRY.incr("ess_cache_invalid")
        REGISTRY.incr("ess_cache_miss")
        return None
    REGISTRY.incr("ess_cache_hit")
    return ess


def store(ess, key):
    """Persist a freshly-built ESS under ``key`` (best-effort).

    Every file is written to a temporary name and atomically renamed
    (``os.replace``), sidecars strictly before the ``.npz`` that
    references them, so concurrent readers (parallel sweep workers
    racing on a cold cache) can never observe a torn archive: until the
    final rename they see the old archive or a miss, and v3 sidecar
    names are content-addressed so a rewrite never mutates files an
    already-open reader may have mapped.  The whole write — sidecar
    save, stale-sidecar inventory, rename, GC — runs under
    :data:`_IO_LOCK`, so an in-process fetch racing a rewrite can never
    read the old archive mid-GC (half its sidecars deleted), and one
    store's GC can never delete sidecars a concurrent store has written
    but not yet published: the sidecars exist on disk *before* the
    referencing ``.npz`` is renamed in, and no other thread runs
    between the two while the lock is held.
    """
    if not settings.get("REPRO_CACHE"):
        return None
    from repro.ess.persistence import archive_sidecars, save_ess

    path = archive_path(key)
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), suffix=_ARCHIVE_SUFFIX
        )
        os.close(fd)
        with REGISTRY.phase("ess_cache_save"), _IO_LOCK:
            save_ess(ess, tmp, cache_key=key, mmap=True,
                     sidecar_base=path)
            stale = _sidecars_of(path)
            fresh = set(archive_sidecars(tmp))
            os.replace(tmp, path)
            # Drop sidecars the replaced archive referenced but the new
            # one does not (best-effort: a racing *process* already
            # holds inodes; racing threads are excluded by the lock).
            for name in stale - fresh:
                try:
                    os.remove(os.path.join(os.path.dirname(path), name))
                except OSError:
                    pass
    except OSError:
        return None  # read-only cache dir etc. — caching is best-effort
    REGISTRY.incr("ess_cache_store")
    return path


def _sidecars_of(path):
    """Sidecar names an existing archive references (empty on any error)."""
    if not os.path.exists(path):
        return set()
    from repro.ess.persistence import archive_sidecars

    try:
        return set(archive_sidecars(path))
    except Exception:
        return set()


def clear():
    """Remove every archive (and mmap sidecar) in the cache directory."""
    directory = settings.get("REPRO_CACHE_DIR")
    if not os.path.isdir(directory):
        return 0
    removed = 0
    for entry in os.listdir(directory):
        if entry.endswith(_ARCHIVE_SUFFIX) or entry.endswith(".npy"):
            try:
                os.remove(os.path.join(directory, entry))
                removed += 1
            except OSError:
                pass
    return removed
