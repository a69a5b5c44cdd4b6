"""Offline ESS persistence.

Paper Section 7: "the construction of the contours in the ESS is
certainly a computationally intensive task ... for canned queries, it
may be feasible to carry out an offline enumeration".  This module is
that offline path: a built ESS (the optimizer-sweep outputs — optimal
costs, plan identities, grid geometry) is saved to a ``.npz`` archive
with two ``.npy`` sidecars and reloaded without re-invoking the
optimizer.  :func:`save_ess` / :func:`load_ess` are the only writer and
reader of the format; the persistent cache (:mod:`repro.perf.cache`),
``repro build --save`` and :class:`~repro.core.session.RobustSession`
all go through them.

Plan *trees* are reconstructed from their canonical identity strings,
so the archive stays plain arrays + strings; reconstruction is exact
because the identity grammar is unambiguous.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import threading

import numpy as np

from repro.errors import OptimizerError, QueryError
from repro.ess.grid import ESSGrid
from repro.ess.ocs import ESS
from repro.optimizer.plans import (
    HASH_JOIN,
    INDEX_NL_JOIN,
    MERGE_JOIN,
    NL_JOIN,
    JoinNode,
    ScanNode,
)

#: The one archive format: a compressed ``.npz`` holding the metadata
#: (query name, grid geometry, cost-model fingerprint and the
#: :func:`ess_cache_key` the persistent cache verifies before trusting
#: a hit), plan keys and grid values, beside two uncompressed ``.npy``
#: sidecars for the large arrays — ``optimal_cost`` and ``plan_ids`` —
#: that loads map with ``np.load(..., mmap_mode="r")``, so a warm load
#: pages cost data in on demand instead of decompressing the whole grid.
#: Sidecar names embed a content digest, so rewriting an archive never
#: mutates a sidecar a concurrent (or already-mapped) reader may hold.
#: Older (self-contained v1/v2) archives are rejected by version.
_FORMAT_VERSION = 3

#: Serializes every archive read against the rewrite-and-GC sequence in
#: :func:`save_ess`.  Within one process (the serving tier fetches and
#: stores from many threads) a load can therefore never observe the
#: window where the new ``.npz`` is in place but the replaced archive's
#: stale sidecars are being deleted, and one save's GC can never delete
#: sidecars a concurrent save has written but not yet published.
#: Cross-process racers keep the weaker guarantee the atomic-rename +
#: content-addressed-sidecar protocol provides on its own.
_IO_LOCK = threading.Lock()

_JOIN_OPS = {HASH_JOIN, MERGE_JOIN, NL_JOIN, INDEX_NL_JOIN}
_KEY_TOKEN = re.compile(r"([A-Z]+)\[([^\]]*)\]\(|([A-Z]+)\(([^()]*)\)|[(),]")


def parse_plan_key(key, query):
    """Rebuild a plan tree from its canonical identity string.

    The grammar is the one :class:`~repro.optimizer.plans.PlanNode`
    emits::

        scan := METHOD(table)
        join := OP[pred,...](node,node)
    """
    pos = 0

    def parse_node():
        nonlocal pos
        match = re.match(r"([A-Z]+)\[([^\]]*)\]\(", key[pos:])
        if match:
            op, pred_names = match.group(1), match.group(2).split(",")
            if op not in _JOIN_OPS:
                raise OptimizerError(f"unknown join op {op!r} in {key!r}")
            pos += match.end()
            outer = parse_node()
            if key[pos] != ",":
                raise OptimizerError(f"malformed plan key {key!r}")
            pos += 1
            inner = parse_node()
            if key[pos] != ")":
                raise OptimizerError(f"malformed plan key {key!r}")
            pos += 1
            by_name = {p.name: p for p in query.joins}
            try:
                preds = [by_name[name] for name in pred_names]
            except KeyError as missing:
                raise QueryError(
                    f"plan key references unknown predicate {missing}"
                ) from None
            return JoinNode(op, outer, inner, preds)
        match = re.match(r"([A-Z]+)\(([^()]*)\)", key[pos:])
        if match:
            method, table = match.group(1), match.group(2)
            pos += match.end()
            return ScanNode(table, method, tuple(query.filters_on(table)))
        raise OptimizerError(f"malformed plan key {key!r} at offset {pos}")

    node = parse_node()
    if pos != len(key):
        raise OptimizerError(f"trailing garbage in plan key {key!r}")
    if node.key != key:
        raise OptimizerError(
            f"plan key round-trip mismatch: {node.key!r} != {key!r}"
        )
    return node


def ess_cache_key(query_name, resolution, sel_min, cost_fingerprint,
                  left_deep=False):
    """The canonical content key identifying one ESS build.

    Every parameter that shapes the optimizer sweep participates: the
    query (by name — the workload registry rebuilds queries
    deterministically from names), the grid geometry (per-dimension
    resolution and sel_min floors), the cost model (by value
    fingerprint, see :meth:`~repro.optimizer.cost_model.CostModel.fingerprint`)
    and the plan-search space (bushy vs left-deep).
    """
    return {
        "query_name": str(query_name),
        "resolution": [int(r) for r in resolution],
        "sel_min": [float(s) for s in sel_min],
        "cost_fingerprint": str(cost_fingerprint),
        "left_deep": bool(left_deep),
    }


def _sidecar_names(path, token):
    """Content-addressed sidecar file names for an archive."""
    base = os.path.basename(path)
    return {
        "optimal_cost": f"{base}.{token}.cost.npy",
        "plan_ids": f"{base}.{token}.pids.npy",
    }


def _write_atomic(final, write):
    """Write ``final`` through ``write(handle)`` on a temp file, then
    ``os.replace`` it into place: readers see the old file or the new
    one, never a torn one."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(final), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
        os.replace(tmp, final)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def save_ess(ess, path, cache_key=None):
    """Persist a built ESS: the ``.npz`` at ``path`` plus two sidecars.

    Args:
        ess: the built :class:`~repro.ess.ocs.ESS` (a lazy surface is
            fully materialized by the array coercion).
        path: destination ``.npz`` path; the sidecars land beside it.
        cache_key: optional :func:`ess_cache_key` dict recorded in the
            archive so loads can verify build-parameter identity.

    Every file is written atomically, sidecars strictly before the
    ``.npz`` that references them; then the sidecars the replaced
    archive referenced and the new one does not are deleted.  The whole
    sequence runs under :data:`_IO_LOCK`.
    """
    path = os.path.abspath(os.fspath(path))
    directory = os.path.dirname(path)
    grid = ess.grid
    arrays = {
        "optimal_cost": np.asarray(ess.optimal_cost, dtype=float),
        "plan_ids": np.asarray(ess.plan_ids, dtype=np.int32),
    }
    token = hashlib.sha256(
        arrays["optimal_cost"].tobytes() + arrays["plan_ids"].tobytes()
    ).hexdigest()[:12]
    sidecars = _sidecar_names(path, token)
    meta = json.dumps({
        "format_version": _FORMAT_VERSION,
        "query_name": ess.query.name,
        "num_dims": grid.num_dims,
        "resolution": list(grid.resolution),
        "cost_fingerprint": ess.cost_model.fingerprint(),
        "cache_key": cache_key,
        "sidecars": sidecars,
    })
    payload = {
        "plan_keys": np.array(ess.plan_keys, dtype=object),
        "grid_values": np.array(
            [grid.values[d] for d in range(grid.num_dims)], dtype=object
        ),
    }
    with _IO_LOCK:
        stale = set(archive_sidecars(path)) - set(sidecars.values())
        for field, name in sidecars.items():
            _write_atomic(os.path.join(directory, name),
                          lambda handle: np.save(handle, arrays[field]))
        _write_atomic(path, lambda handle: np.savez_compressed(
            handle, meta=meta, **payload))
        # Best-effort: a racing *process* already holds its inodes.
        for name in stale:
            try:
                os.remove(os.path.join(directory, name))
            except OSError:
                pass


def archive_sidecars(path):
    """Sidecar file names the archive at ``path`` references (empty when
    there is no readable archive there)."""
    try:
        with np.load(path, allow_pickle=True) as archive:
            meta = json.loads(str(archive["meta"]))
        return list(meta.get("sidecars", {}).values())
    except Exception:
        return []


def load_ess(path, query, cost_model=None, expected_key=None):
    """Load a persisted ESS for the (identical) query it was built from.

    Args:
        path: the ``.npz`` archive.
        query: the query object; its name must match the archive and
            its predicates must resolve every stored plan key.
        cost_model: cost model for re-costing; defaults to the library
            default (must match the one used at build time for costs to
            be coherent).
        expected_key: optional :func:`ess_cache_key` dict; when given,
            the archive must record exactly this key (the
            persistent-cache integrity check).
    """
    from repro.optimizer.cost_model import DEFAULT_COST_MODEL

    with _IO_LOCK, np.load(path, allow_pickle=True) as archive:
        meta = json.loads(str(archive["meta"]))
        if meta.get("format_version") != _FORMAT_VERSION:
            raise OptimizerError(
                f"unsupported ESS archive version "
                f"{meta.get('format_version')} (this build reads only "
                f"version {_FORMAT_VERSION}; rebuild the archive)"
            )
        if expected_key is not None and meta.get("cache_key") != expected_key:
            raise OptimizerError(
                f"ESS archive {path!s} does not match the expected cache "
                f"key (stored {meta.get('cache_key')!r})"
            )
        if meta["query_name"] != query.name:
            raise QueryError(
                f"archive was built for query {meta['query_name']!r}, "
                f"not {query.name!r}"
            )
        if meta["num_dims"] != query.num_epps:
            raise QueryError("archive dimensionality mismatch")
        grid = ESSGrid(meta["num_dims"], resolution=meta["resolution"])
        for dim, values in enumerate(archive["grid_values"]):
            grid.values[dim] = np.asarray(values, dtype=float)
        grid.invalidate_caches()  # rebuilt lazily from restored values
        plans = [
            parse_plan_key(str(key), query) for key in archive["plan_keys"]
        ]
        optimal_cost, plan_ids = _load_sidecars(path, meta, grid)
    return ESS(
        query=query,
        grid=grid,
        cost_model=cost_model or DEFAULT_COST_MODEL,
        optimal_cost=optimal_cost,
        plan_ids=plan_ids,
        plans=plans,
    )


def _load_sidecars(path, meta, grid):
    """Memory-map an archive's cost/plan sidecars (read-only).

    ``np.asarray`` on a matching-dtype memmap is a no-op, so the
    returned arrays stay lazily paged; every validation failure raises
    (the cache layer treats any exception as a miss and rebuilds).
    """
    directory = os.path.dirname(os.path.abspath(path))
    sidecars = meta["sidecars"]
    optimal_cost = np.load(
        os.path.join(directory, sidecars["optimal_cost"]), mmap_mode="r"
    )
    plan_ids = np.load(
        os.path.join(directory, sidecars["plan_ids"]), mmap_mode="r"
    )
    expected = (grid.num_points,)
    if (
        optimal_cost.shape != expected
        or plan_ids.shape != expected
        or optimal_cost.dtype != np.float64
        or plan_ids.dtype != np.int32
    ):
        raise OptimizerError(
            f"ESS archive {path!s} sidecars do not match its grid"
        )
    return optimal_cost, plan_ids
