"""Tests for the persistent ESS cache layer (repro.perf.cache)."""

import os

import numpy as np
import pytest

from repro.bench import workloads
from repro.ess.persistence import ess_cache_key
from repro.obs.metrics import REGISTRY
from repro.optimizer.cost_model import DEFAULT_COST_MODEL, CostModel
from repro.perf import cache as ess_cache


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


class TestFingerprint:
    def test_equal_models_share_fingerprint(self):
        assert CostModel().fingerprint() == CostModel().fingerprint()
        assert DEFAULT_COST_MODEL.fingerprint() == CostModel().fingerprint()

    def test_perturbed_model_differs(self):
        noisy = DEFAULT_COST_MODEL.with_noise(0.1, seed=3)
        assert noisy.fingerprint() != DEFAULT_COST_MODEL.fingerprint()

    def test_registry_keys_by_value_not_identity(self, isolated_cache):
        """Two separately-constructed equal models must share the entry.

        The old registry keyed on ``id(cost_model)``: ids are recycled
        after garbage collection, so a perturbed-model ablation could
        silently reuse a stale instance.  Value fingerprints make the
        key stable across object identities.
        """
        a = workloads.load("3D_Q15", profile="smoke", cost_model=CostModel())
        b = workloads.load("3D_Q15", profile="smoke", cost_model=CostModel())
        assert a is b
        noisy = DEFAULT_COST_MODEL.with_noise(0.2, seed=7)
        c = workloads.load("3D_Q15", profile="smoke", cost_model=noisy)
        assert c is not a


class TestPersistentCache:
    def test_warm_load_is_bit_identical(self, isolated_cache):
        cold = workloads.load("2D_Q91", profile="smoke")
        assert REGISTRY.counter("ess_cache_store") == 1
        workloads.clear_cache()
        warm = workloads.load("2D_Q91", profile="smoke")
        assert REGISTRY.counter("ess_cache_hit") == 1
        assert warm.ess is not cold.ess
        assert np.array_equal(warm.ess.optimal_cost, cold.ess.optimal_cost)
        assert np.array_equal(warm.ess.plan_ids, cold.ess.plan_ids)
        assert warm.ess.plan_keys == cold.ess.plan_keys
        for dim in range(cold.ess.grid.num_dims):
            assert np.array_equal(warm.ess.grid.values[dim],
                                  cold.ess.grid.values[dim])

    def test_restored_ess_drives_identical_discovery(self, isolated_cache):
        from repro.core.spill_bound import SpillBound

        cold = workloads.load("2D_Q91", profile="smoke")
        cold_sb = SpillBound(cold.ess, cold.contours)
        reference = cold_sb.evaluate_all()
        workloads.clear_cache()
        warm = workloads.load("2D_Q91", profile="smoke")
        warm_sb = SpillBound(warm.ess, warm.contours)
        assert np.array_equal(warm_sb.evaluate_all(), reference)

    def test_cost_model_change_invalidates(self, isolated_cache):
        workloads.load("2D_Q91", profile="smoke")
        workloads.clear_cache()
        noisy = DEFAULT_COST_MODEL.with_noise(0.3, seed=5)
        workloads.load("2D_Q91", profile="smoke", cost_model=noisy)
        # The perturbed model must key a distinct archive, not hit the
        # one built for the default model.
        assert REGISTRY.counter("ess_cache_hit") == 0
        assert REGISTRY.counter("ess_cache_store") == 2

    def test_resolution_change_invalidates(self, isolated_cache):
        workloads.load("2D_Q91", profile="smoke")
        workloads.clear_cache()
        workloads.load("2D_Q91", profile="smoke", resolution=6)
        assert REGISTRY.counter("ess_cache_hit") == 0
        assert REGISTRY.counter("ess_cache_store") == 2

    def test_distinct_keys_map_to_distinct_archives(self):
        base = dict(query_name="2D_Q91", resolution=[10, 10],
                    sel_min=[1e-5, 1e-5],
                    cost_fingerprint=DEFAULT_COST_MODEL.fingerprint(),
                    left_deep=False)
        path = ess_cache.archive_path(ess_cache_key(**base))
        for tweak in (
            {"resolution": [12, 12]},
            {"sel_min": [1e-6, 1e-5]},
            {"cost_fingerprint": "deadbeefdeadbeef"},
            {"left_deep": True},
            {"query_name": "3D_Q91"},
        ):
            other = ess_cache.archive_path(ess_cache_key(**{**base, **tweak}))
            assert other != path

    def test_cache_disable_knob(self, isolated_cache, monkeypatch):
        for off in ("0", "OFF"):
            monkeypatch.setenv("REPRO_CACHE", off)
            workloads.clear_cache()
            workloads.load("2D_Q91", profile="smoke")
            assert not os.path.isdir(str(isolated_cache))
            assert REGISTRY.counter("ess_cache_store") == 0

    def test_corrupt_archive_treated_as_miss(self, isolated_cache):
        workloads.load("2D_Q91", profile="smoke")
        archives = [f for f in os.listdir(str(isolated_cache))
                    if f.endswith(".ess.npz")]
        assert len(archives) == 1
        with open(os.path.join(str(isolated_cache), archives[0]), "wb") as f:
            f.write(b"not an npz")
        workloads.clear_cache()
        instance = workloads.load("2D_Q91", profile="smoke")  # rebuilds
        assert instance.ess.grid.num_points > 0
        assert REGISTRY.counter("ess_cache_invalid") == 1

    def test_clear_removes_archives(self, isolated_cache):
        workloads.load("2D_Q91", profile="smoke")
        # A v3 entry is the .npz plus its two mmap sidecars.
        assert ess_cache.clear() == 3
        assert ess_cache.clear() == 0


class TestConcurrentArchiveIO:
    """Regression: store()'s stale-sidecar GC vs concurrent fetch().

    Before store() took :data:`repro.perf.cache._IO_LOCK`, a fetch
    racing a rewrite could open the old archive after the rename *while*
    the GC was deleting the sidecars that archive references — a torn
    read surfacing as ``ess_cache_invalid``.  Under the lock the reader
    sees either complete variant, never a half-collected one.
    """

    def test_store_fetch_hammer_never_tears(self, isolated_cache):
        import threading

        first = workloads.load("2D_Q91", profile="smoke")
        workloads.clear_cache()
        # A second surface with different content (and therefore
        # different content-addressed sidecar names) stored under the
        # SAME archive path, so every swap makes the GC delete the
        # other variant's sidecars.
        second = workloads.load("2D_Q91", profile="smoke", resolution=4)
        key = first.ess.provenance["disk_key"]
        references = (first.ess.optimal_cost.copy(),
                      second.ess.optimal_cost.copy())
        ess_cache.store(first.ess, key)
        REGISTRY.reset()

        stop = threading.Event()
        failures = []

        def rewriter(ess):
            while not stop.is_set():
                ess_cache.store(ess, key)

        def reader():
            while not stop.is_set():
                got = ess_cache.fetch(key, first.query, DEFAULT_COST_MODEL)
                if got is None:
                    failures.append("miss")
                elif not any(np.array_equal(got.optimal_cost, ref)
                             for ref in references):
                    failures.append("mismatch")

        threads = [
            threading.Thread(target=rewriter, args=(first.ess,)),
            threading.Thread(target=rewriter, args=(second.ess,)),
            threading.Thread(target=reader),
            threading.Thread(target=reader),
        ]
        for thread in threads:
            thread.start()
        stop.wait(1.2)
        stop.set()
        for thread in threads:
            thread.join(30)

        assert failures == []
        assert REGISTRY.counter("ess_cache_invalid") == 0
        assert REGISTRY.counter("ess_cache_hit") > 0
