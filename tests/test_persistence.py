"""Unit tests for ESS persistence (offline preprocessing, Section 7)."""

import copy
import json
import shutil

import numpy as np
import pytest

from repro import ContourSet, OptimizerError, QueryError, SpillBound
from repro.ess.persistence import (
    archive_sidecars,
    ess_cache_key,
    load_ess,
    parse_plan_key,
    save_ess,
)
from repro.obs.metrics import REGISTRY
from tests.conftest import make_star_query, make_toy_query


def _toy_key(ess):
    grid = ess.grid
    return ess_cache_key(
        ess.query.name,
        grid.resolution,
        [float(grid.values[d][0]) for d in range(grid.num_dims)],
        ess.cost_model.fingerprint(),
    )


def _write_v2_archive(ess, path, cache_key=None):
    """An archive in the retired self-contained format 2: every array
    inside the one ``.npz``, no sidecars."""
    grid = ess.grid
    meta = {
        "format_version": 2,
        "query_name": ess.query.name,
        "num_dims": grid.num_dims,
        "resolution": list(grid.resolution),
        "cost_fingerprint": ess.cost_model.fingerprint(),
        "cache_key": cache_key,
    }
    np.savez_compressed(
        path,
        meta=json.dumps(meta),
        optimal_cost=np.asarray(ess.optimal_cost, dtype=float),
        plan_ids=np.asarray(ess.plan_ids, dtype=np.int32),
        plan_keys=np.array(ess.plan_keys, dtype=object),
        grid_values=np.array(
            [grid.values[d] for d in range(grid.num_dims)], dtype=object
        ),
    )


class TestPlanKeyParsing:
    def test_roundtrip_every_posp_plan(self, toy_ess):
        for key in toy_ess.plan_keys:
            plan = parse_plan_key(key, toy_ess.query)
            assert plan.key == key

    def test_parsed_plans_recost_identically(self, toy_ess):
        from repro.optimizer.plans import plan_cost

        env = {0: 1e-4, 1: 1e-4}
        for pid, key in enumerate(toy_ess.plan_keys):
            plan = parse_plan_key(key, toy_ess.query)
            original = plan_cost(toy_ess.plans[pid], toy_ess.query,
                                 toy_ess.cost_model, env)
            parsed = plan_cost(plan, toy_ess.query, toy_ess.cost_model, env)
            assert parsed == pytest.approx(original)

    def test_malformed_key_rejected(self, toy_query):
        with pytest.raises(OptimizerError):
            parse_plan_key("HJ[", toy_query)
        with pytest.raises(OptimizerError):
            parse_plan_key("SEQ(part)garbage", toy_query)

    def test_unknown_predicate_rejected(self, toy_query):
        with pytest.raises(QueryError):
            parse_plan_key(
                "HJ[j:ghost](SEQ(part),SEQ(lineitem))", toy_query
            )


class TestSaveLoad:
    def test_roundtrip_preserves_surface(self, toy_ess, tmp_path):
        path = tmp_path / "ess.npz"
        save_ess(toy_ess, path)
        restored = load_ess(path, toy_ess.query)
        assert np.allclose(restored.optimal_cost, toy_ess.optimal_cost)
        assert np.array_equal(restored.plan_ids, toy_ess.plan_ids)
        assert restored.plan_keys == toy_ess.plan_keys
        for dim in range(2):
            assert np.allclose(restored.grid.values[dim],
                               toy_ess.grid.values[dim])

    def test_restored_ess_drives_discovery(self, toy_ess, toy_sb, tmp_path):
        path = tmp_path / "ess.npz"
        save_ess(toy_ess, path)
        restored = load_ess(path, toy_ess.query)
        sb = SpillBound(restored, ContourSet(restored))
        for flat in [0, 44, 199, 377]:
            assert sb.run(flat).total_cost == pytest.approx(
                toy_sb.run(flat).total_cost
            )

    def test_wrong_query_rejected(self, toy_ess, tmp_path):
        path = tmp_path / "ess.npz"
        save_ess(toy_ess, path)
        other = make_star_query(2)
        with pytest.raises(QueryError):
            load_ess(path, other)

    def test_same_named_query_accepted(self, toy_ess, tmp_path):
        path = tmp_path / "ess.npz"
        save_ess(toy_ess, path)
        fresh_query = make_toy_query()  # equal, separately constructed
        restored = load_ess(path, fresh_query)
        assert restored.posp_size == toy_ess.posp_size


class TestDtypeRoundTrip:
    """Archives must round-trip bit-identically whatever
    dtypes the surfaces were built with: the loader canonicalizes to
    float64 costs / int32 plan ids, and the loaded arrays must equal the
    deterministic casts of the saved ones exactly — no value drift."""

    @pytest.mark.parametrize("ids_dtype", [np.int16, np.int32, np.int64])
    @pytest.mark.parametrize("cost_dtype", [np.float32, np.float64])
    def test_roundtrip_exact_across_dtypes(self, toy_ess, tmp_path,
                                           ids_dtype, cost_dtype):
        variant = copy.copy(toy_ess)
        variant.plan_ids = toy_ess.plan_ids.astype(ids_dtype)
        variant.optimal_cost = toy_ess.optimal_cost.astype(cost_dtype)
        path = tmp_path / "variant.npz"
        save_ess(variant, path)
        restored = load_ess(path, toy_ess.query)
        assert restored.optimal_cost.dtype == np.float64
        assert np.array_equal(
            restored.optimal_cost,
            variant.optimal_cost.astype(np.float64),
        )
        assert restored.plan_ids.dtype == np.int32
        assert np.array_equal(
            restored.plan_ids, variant.plan_ids.astype(np.int32)
        )
        assert restored.plan_keys == toy_ess.plan_keys
        for dim in range(toy_ess.grid.num_dims):
            assert np.array_equal(restored.grid.values[dim],
                                  toy_ess.grid.values[dim])

    def test_float64_roundtrip_bit_identical(self, toy_ess, tmp_path):
        path = tmp_path / "exact.npz"
        save_ess(toy_ess, path)
        restored = load_ess(path, toy_ess.query)
        assert np.array_equal(restored.optimal_cost, toy_ess.optimal_cost)
        assert np.array_equal(restored.plan_ids, toy_ess.plan_ids)


class TestMmapArchive:
    """The one archive format: the two large arrays live in
    uncompressed, content-addressed ``.npy`` sidecars that loads
    memory-map — a couple of extra files for zero-decompression warm
    loads."""

    def test_v3_roundtrip_bit_identical_and_mmapped(self, toy_ess,
                                                    tmp_path):
        path = tmp_path / "ess.npz"
        save_ess(toy_ess, path)
        restored = load_ess(path, toy_ess.query)
        assert isinstance(restored.optimal_cost, np.memmap)
        assert isinstance(restored.plan_ids, np.memmap)
        assert np.array_equal(restored.optimal_cost, toy_ess.optimal_cost)
        assert np.array_equal(restored.plan_ids, toy_ess.plan_ids)
        assert restored.plan_keys == toy_ess.plan_keys

    def test_restored_mmap_ess_drives_discovery(self, toy_ess, toy_sb,
                                                tmp_path):
        path = tmp_path / "ess.npz"
        save_ess(toy_ess, path)
        restored = load_ess(path, toy_ess.query)
        sb = SpillBound(restored, ContourSet(restored))
        for flat in [0, 44, 199, 377]:
            assert sb.run(flat).total_cost == pytest.approx(
                toy_sb.run(flat).total_cost
            )

    def test_sidecar_names_are_content_addressed(self, toy_ess, tmp_path):
        path = tmp_path / "ess.npz"
        save_ess(toy_ess, path)
        first = archive_sidecars(path)
        assert len(first) == 2
        for name in first:
            assert (tmp_path / name).exists()
            assert name.startswith("ess.npz.")
            assert name.endswith(".npy")
        # Same content -> same digest -> a rewrite maps the same files.
        save_ess(toy_ess, path)
        assert archive_sidecars(path) == first

    def test_save_writes_archive_and_two_sidecars(self, toy_ess, tmp_path):
        path = tmp_path / "ess.npz"
        save_ess(toy_ess, path)
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == sorted(["ess.npz", *archive_sidecars(path)])
        assert len(written) == 3  # no temp file left behind

    def test_rewrite_collects_stale_sidecars(self, toy_ess, tmp_path):
        path = tmp_path / "ess.npz"
        variant = copy.copy(toy_ess)
        variant.optimal_cost = toy_ess.optimal_cost * 2.0
        save_ess(variant, path)
        stale = archive_sidecars(path)
        save_ess(toy_ess, path)
        fresh = archive_sidecars(path)
        assert set(stale).isdisjoint(fresh)
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            sorted(["ess.npz", *fresh])
        restored = load_ess(path, toy_ess.query)
        assert np.array_equal(restored.optimal_cost, toy_ess.optimal_cost)

    def test_missing_sidecar_rejected(self, toy_ess, tmp_path):
        path = tmp_path / "ess.npz"
        save_ess(toy_ess, path)
        for name in archive_sidecars(path):
            (tmp_path / name).unlink()
        with pytest.raises(FileNotFoundError):
            load_ess(path, toy_ess.query)

    def test_corrupt_sidecar_rejected(self, toy_ess, tmp_path):
        path = tmp_path / "ess.npz"
        save_ess(toy_ess, path)
        sidecars = archive_sidecars(path)
        cost_name = next(n for n in sidecars if n.endswith(".cost.npy"))
        np.save(tmp_path / cost_name.removesuffix(".npy"),
                np.zeros(7))  # wrong shape
        with pytest.raises(OptimizerError):
            load_ess(path, toy_ess.query)

    def test_lazy_surface_saves_materialized(self, toy_ess, tmp_path):
        from repro.ess.grid import ESSGrid
        from repro.ess.lazy import LazyESS

        grid = ESSGrid(2, resolution=20, sel_min=1e-7)
        lazy = LazyESS(toy_ess.query, grid,
                       cost_model=toy_ess.cost_model)
        path = tmp_path / "lazy.npz"
        save_ess(lazy, path)
        restored = load_ess(path, toy_ess.query)
        # Costs are mode-invariant; ids are surface-local, so compare
        # the restored ids through the lazy surface's own key table.
        assert np.array_equal(restored.optimal_cost, toy_ess.optimal_cost)
        assert [restored.plan_keys[p] for p in restored.plan_ids] == \
            [lazy.plan_keys[p] for p in np.asarray(lazy.plan_ids)]


class TestRetiredFormat:
    """Self-contained version-2 archives are no longer read: a load
    names the version, and the cache counts one as invalid and
    rebuilds it in the current format."""

    def test_v2_archive_rejected_by_version(self, toy_ess, tmp_path):
        path = tmp_path / "old.npz"
        _write_v2_archive(toy_ess, path)
        with pytest.raises(OptimizerError, match="version 2"):
            load_ess(path, toy_ess.query)

    def test_cache_rebuilds_v2_archive(self, toy_ess, tmp_path, monkeypatch):
        from repro.perf import cache

        monkeypatch.delenv("REPRO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        key = _toy_key(toy_ess)
        path = cache.archive_path(key)
        _write_v2_archive(toy_ess, path, cache_key=key)
        REGISTRY.reset()
        try:
            rebuilt = cache.fetch_or_build(toy_ess.query, toy_ess.grid,
                                           toy_ess.cost_model, key)
            assert REGISTRY.counter("ess_cache_invalid") == 1
            assert REGISTRY.counter("ess_cache_store") == 1
        finally:
            REGISTRY.reset()
        assert np.array_equal(rebuilt.optimal_cost, toy_ess.optimal_cost)
        assert len(archive_sidecars(path)) == 2
        assert cache.fetch(key, toy_ess.query, toy_ess.cost_model) is not None


class TestCacheRelocation:
    """The persistent ESS cache is content-keyed, so archives survive a
    wholesale relocation of the cache directory (backup/restore, CI
    cache transplant): repointing ``REPRO_CACHE_DIR`` at the moved tree
    must hit, bit-identically."""

    def test_archive_survives_cache_dir_move(self, toy_ess, tmp_path,
                                             monkeypatch):
        from repro.perf import cache

        monkeypatch.delenv("REPRO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "a"))
        key = _toy_key(toy_ess)
        assert cache.store(toy_ess, key) is not None
        assert cache.fetch(key, toy_ess.query, toy_ess.cost_model) is not None

        shutil.move(str(tmp_path / "a"), str(tmp_path / "b"))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "b"))
        restored = cache.fetch(key, toy_ess.query, toy_ess.cost_model)
        assert restored is not None
        assert np.array_equal(restored.optimal_cost, toy_ess.optimal_cost)
        assert np.array_equal(restored.plan_ids, toy_ess.plan_ids)
        assert restored.plan_keys == toy_ess.plan_keys

        # The old location is gone: repointing back misses cleanly.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "a"))
        assert cache.fetch(key, toy_ess.query, toy_ess.cost_model) is None
