"""Tests for the shared-memory ESS tier (repro.perf.shm).

A process that built a surface exports it into
``multiprocessing.shared_memory`` segments (``export_for_transfer``) and
hands the picklable offer on; whoever adopts it (``register_offer``)
attaches through :func:`repro.perf.cache.fetch` ahead of the disk
archive.  These tests exercise the export/register/attach round-trip
in-process — attachment is plain segment mapping, identical in a pool
worker — plus the end-to-end parallel-sweep identity.
"""

import numpy as np
import pytest

from repro.bench import workloads
from repro.core.mso import evaluate_algorithm
from repro.core.spill_bound import SpillBound
from repro.ess.persistence import ess_cache_key
from repro.obs.metrics import REGISTRY
from repro.perf import cache, shm


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    """Point the persistent cache at a fresh directory, clear registries."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ess-cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    workloads.clear_cache()
    REGISTRY.reset()
    yield tmp_path / "ess-cache"
    workloads.clear_cache()
    REGISTRY.reset()


@pytest.fixture
def offers(monkeypatch):
    """A private offer registry; every offer exported through it is
    unlinked on the way out."""
    monkeypatch.setattr(shm, "_OFFERS", {})
    exported = []

    def offer_of(key, ess):
        offer = shm.export_for_transfer(key, ess)
        assert offer is not None
        exported.append(offer)
        shm.register_offer(offer)
        return offer

    yield offer_of
    for offer in exported:
        shm.unlink_offer(offer)


def _key_of(ess):
    grid = ess.grid
    return ess_cache_key(
        ess.query.name,
        grid.resolution,
        [float(grid.values[d][0]) for d in range(grid.num_dims)],
        ess.cost_model.fingerprint(),
    )


class TestPublishAttach:
    def test_roundtrip_is_bit_identical(self, toy_ess, offers):
        key = _key_of(toy_ess)
        offers(key, toy_ess)
        assert shm.live_offers() == 1
        attached = shm.attach_if_offered(
            key, toy_ess.query, toy_ess.cost_model
        )
        assert attached is not None
        assert np.array_equal(attached.optimal_cost, toy_ess.optimal_cost)
        assert np.array_equal(attached.plan_ids, toy_ess.plan_ids)
        assert attached.plan_keys == toy_ess.plan_keys
        for dim in range(toy_ess.grid.num_dims):
            assert np.array_equal(attached.grid.values[dim],
                                  toy_ess.grid.values[dim])

    def test_attached_arrays_alias_segments(self, toy_ess, offers):
        key = _key_of(toy_ess)
        offers(key, toy_ess)
        attached = shm.attach_if_offered(
            key, toy_ess.query, toy_ess.cost_model
        )
        # The arrays wrap the segment buffers — views, not copies.
        assert attached.optimal_cost.base is not None
        assert attached.plan_ids.base is not None
        assert attached._shm_handles

    def test_attach_miss_returns_none(self, toy_ess, offers):
        key = _key_of(toy_ess)
        assert shm.attach_if_offered(
            key, toy_ess.query, toy_ess.cost_model
        ) is None

    def test_close_withdraws_offer_and_is_idempotent(self, toy_ess, offers):
        key = _key_of(toy_ess)
        offer = offers(key, toy_ess)
        assert shm.unlink_offer(offer) == 2
        assert shm.live_offers() == 0
        assert shm.attach_if_offered(
            key, toy_ess.query, toy_ess.cost_model
        ) is None
        assert shm.unlink_offer(offer) == 0  # a second unlink is a no-op

    def test_lazy_surface_never_published(self, toy_ess, offers):
        from repro.ess.grid import ESSGrid
        from repro.ess.lazy import LazyESS

        grid = ESSGrid(2, resolution=20, sel_min=1e-7)
        lazy = LazyESS(toy_ess.query, grid, cost_model=toy_ess.cost_model)
        assert shm.export_for_transfer(_key_of(lazy), lazy) is None
        assert shm.live_offers() == 0


class TestTransferredOfferRegistry:
    def test_register_offer_evicts_oldest_beyond_limit(self, monkeypatch):
        monkeypatch.setattr(shm, "_OFFERS", {})
        monkeypatch.setattr(shm, "_OFFER_LIMIT", 3)
        for i in range(5):
            shm.register_offer({"key": ["bound", i], "segments": {}})
        assert shm.live_offers() == 3
        assert shm._digest(["bound", 0]) not in shm._OFFERS
        assert shm._digest(["bound", 1]) not in shm._OFFERS
        assert shm._digest(["bound", 4]) in shm._OFFERS
        # Re-registration refreshes recency: 2 survives the next evict.
        shm.register_offer({"key": ["bound", 2], "segments": {}})
        shm.register_offer({"key": ["bound", 5], "segments": {}})
        assert shm._digest(["bound", 2]) in shm._OFFERS
        assert shm._digest(["bound", 3]) not in shm._OFFERS

    def test_failed_attach_drops_stale_offer(self, toy_ess, monkeypatch):
        monkeypatch.setattr(shm, "_OFFERS", {})
        key = _key_of(toy_ess)
        offer = shm.export_for_transfer(key, toy_ess)
        assert offer is not None
        shm.unlink_offer(offer)    # the owner evicted the segments...
        shm.register_offer(offer)  # ...but a worker still holds the offer
        assert shm.attach_if_offered(
            key, toy_ess.query, toy_ess.cost_model
        ) is None
        # The dead offer is forgotten: later fetches skip the doomed
        # attach and fall straight through to the disk archive.
        assert shm.live_offers() == 0


class TestCacheTier:
    def test_fetch_prefers_shm_over_disk(self, toy_ess, offers, monkeypatch):
        # Disk cache off entirely: a hit can only come from the offer.
        monkeypatch.setenv("REPRO_CACHE", "0")
        key = _key_of(toy_ess)
        offer = offers(key, toy_ess)
        REGISTRY.reset()
        fetched = cache.fetch(key, toy_ess.query, toy_ess.cost_model)
        assert fetched is not None
        assert np.array_equal(fetched.optimal_cost, toy_ess.optimal_cost)
        assert REGISTRY.counter("ess_shm_hit") == 1
        shm.unlink_offer(offer)
        assert cache.fetch(key, toy_ess.query, toy_ess.cost_model) is None


class TestForcedParallelIdentity:
    def test_parallel_sweep_matches_batch(self, isolated_cache):
        """End to end: forked workers sweep the parent's surface and the
        result is bit-identical to serial, without touching the offer
        registry."""
        offers_before = shm.live_offers()
        instance = workloads.load("2D_Q42", profile="smoke")
        serial = evaluate_algorithm(
            SpillBound(instance.ess, instance.contours), engine="batch"
        )
        parallel = evaluate_algorithm(
            SpillBound(instance.ess, instance.contours),
            workers=2, engine="parallel",
        )
        assert np.array_equal(serial.suboptimality, parallel.suboptimality)
        assert serial.mso == parallel.mso
        assert serial.worst_location == parallel.worst_location
        assert REGISTRY.counter("parallel_sweeps") == 1
        assert shm.live_offers() == offers_before
