"""Tests for the ``repro.perf.shm`` shim.

Surfaces reach other processes through the archive cache alone, so the
shim's "attach" is :func:`repro.perf.cache.fetch`: an archived surface
comes back bit-identical, its arrays mapped from the archive's sidecars.
The shim goes when the benchmark ladder stops timing it.
"""

import numpy as np
import pytest

from repro.bench import workloads
from repro.ess.persistence import ess_cache_key
from repro.perf import cache, shm


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ess-cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    workloads.clear_cache()
    yield
    workloads.clear_cache()


def _key_of(ess):
    grid = ess.grid
    return ess_cache_key(
        ess.query.name,
        grid.resolution,
        [float(grid.values[d][0]) for d in range(grid.num_dims)],
        ess.cost_model.fingerprint(),
    )


def _attach(ess, key):
    return shm.attach_if_offered(key, ess.query, ess.cost_model)


class TestPublishAttach:
    def test_roundtrip_is_bit_identical(self, toy_ess, isolated_cache):
        key = _key_of(toy_ess)
        assert shm.export_for_transfer(key, toy_ess) == {"key": key}
        cache.store(toy_ess, key)
        attached = _attach(toy_ess, key)
        fetched = cache.fetch(key, toy_ess.query, toy_ess.cost_model)
        for other in (toy_ess, fetched):
            assert np.array_equal(attached.optimal_cost, other.optimal_cost)
            assert np.array_equal(attached.plan_ids, other.plan_ids)
            assert attached.plan_keys == other.plan_keys
        for dim in range(toy_ess.grid.num_dims):
            assert np.array_equal(attached.grid.values[dim],
                                  toy_ess.grid.values[dim])

    def test_attached_arrays_alias_segments(self, toy_ess, isolated_cache):
        key = _key_of(toy_ess)
        cache.store(toy_ess, key)
        attached = _attach(toy_ess, key)
        # Read-only maps of the archive's sidecars, shared through the
        # page cache — not private copies.
        assert isinstance(attached.optimal_cost, np.memmap)
        assert isinstance(attached.plan_ids, np.memmap)

    def test_attach_miss_returns_none(self, toy_ess, isolated_cache):
        assert _attach(toy_ess, _key_of(toy_ess)) is None

    def test_lazy_surface_never_published(self, isolated_cache):
        lazy = workloads.load("2D_Q42", profile="smoke", ess_mode="lazy")
        assert _attach(lazy.ess, lazy.ess.provenance["disk_key"]) is None
