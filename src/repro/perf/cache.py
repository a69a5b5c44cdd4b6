"""Persistent, content-keyed ESS cache.

Paper Section 7 flags ESS/contour construction as "a computationally
intensive task" best amortized offline.  This module is that
amortization: built ESS surfaces are stored as
:mod:`repro.ess.persistence` archives under a cache directory, keyed by
the full content of the build — query name, per-dimension grid
resolution and ``sel_min`` floors, the cost model's value fingerprint,
and the plan-search space — so a repeated benchmark or test run skips
the optimizer sweep entirely while any change to the inputs keys a
fresh build.

:func:`fetch_or_build` is the one "fetch, else build and store" policy;
every code path that builds an ESS (workload registry, conformance
suite, wallclock setup, :class:`~repro.core.session.RobustSession`)
calls it.

Knobs (environment, resolved by :mod:`repro.settings`):

* ``REPRO_CACHE_DIR`` — cache directory; defaults to
  ``$XDG_CACHE_HOME/repro/ess`` (or ``~/.cache/repro/ess``).
* ``REPRO_CACHE=0`` — disable the persistent cache entirely (builds
  always run; nothing is written).

Before touching disk, :func:`fetch` consults the shared-memory offer
registry (:mod:`repro.perf.shm`): a discovery-server pool worker that
holds an offer for the key attaches to the server's shared surface
instead of re-reading the archive.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro import settings
from repro.ess.ocs import ESS
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span as obs_span
from repro.optimizer.cost_model import DEFAULT_COST_MODEL

_ARCHIVE_SUFFIX = ".ess.npz"


def archive_path(key, directory=None):
    """Archive path for an :func:`~repro.ess.persistence.ess_cache_key`.

    ``directory`` defaults to ``REPRO_CACHE_DIR``.
    """
    digest = hashlib.sha256(
        json.dumps(key, sort_keys=True).encode("ascii")
    ).hexdigest()[:24]
    safe_name = "".join(
        c if c.isalnum() or c in "-_" else "-" for c in key["query_name"]
    )
    return os.path.join(settings.get("REPRO_CACHE_DIR", directory),
                        f"{safe_name}-{digest}{_ARCHIVE_SUFFIX}")


def fetch(key, query, cost_model, directory=None):
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
    path = archive_path(key, directory)
    if not os.path.exists(path):
        REGISTRY.incr("ess_cache_miss")
        return None
    from repro.ess.persistence import load_ess

    try:
        with REGISTRY.phase("ess_cache_load"):
            with obs_span("cache.load", key=key):
                ess = load_ess(path, query, cost_model=cost_model,
                               expected_key=key)
    except Exception:
        REGISTRY.incr("ess_cache_invalid")
        REGISTRY.incr("ess_cache_miss")
        return None
    REGISTRY.incr("ess_cache_hit")
    return ess


def store(ess, key, directory=None):
    """Persist a freshly-built ESS under ``key`` (best-effort).

    :func:`~repro.ess.persistence.save_ess` writes atomically, so
    concurrent readers (pool workers racing on a cold cache) see the old
    archive or a miss until the new one is complete, never a torn one.
    """
    if not settings.get("REPRO_CACHE"):
        return None
    from repro.ess.persistence import save_ess

    path = archive_path(key, directory)
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with REGISTRY.phase("ess_cache_save"):
            save_ess(ess, path, cache_key=key)
    except OSError:
        return None  # read-only cache dir etc. — caching is best-effort
    REGISTRY.incr("ess_cache_store")
    return path


def fetch_or_build(query, grid, cost_model=DEFAULT_COST_MODEL, key=None,
                   directory=None):
    """The archived ESS for ``key``, else a fresh build that is stored.

    The build runs under the ``ess_build`` registry phase.  With no
    ``key`` the cache is neither read nor written: the surface is just
    built.
    """
    ess = fetch(key, query, cost_model, directory) if key else None
    if ess is None:
        with REGISTRY.phase("ess_build"):
            ess = ESS.build(query, grid, cost_model=cost_model)
        if key:
            store(ess, key, directory)
    return ess


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
