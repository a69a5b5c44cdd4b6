"""Tests for the multiprocess sweep engine (repro.perf.parallel)."""

import numpy as np
import pytest

from repro.bench import workloads
from repro.core.mso import evaluate_algorithm
from repro.core.spill_bound import SpillBound
from repro.perf import parallel as par


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ess-cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    workloads.clear_cache()
    yield
    workloads.clear_cache()


class TestWorkerCount:
    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "8")
        assert par.worker_count(2) == 2

    def test_env_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert par.worker_count() == 1
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert par.worker_count() == 1
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert par.worker_count() == 3
        monkeypatch.setenv("REPRO_WORKERS", "auto")
        assert par.worker_count() >= 1

    def test_env_garbage_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "banana")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            par.worker_count()


class TestSpecDerivation:
    def test_registry_instances_have_specs(self, isolated_cache):
        instance = workloads.load("2D_Q91", profile="smoke")
        spec = par.spec_for(SpillBound(instance.ess, instance.contours))
        assert spec is not None
        assert spec.kind == "workload"
        assert spec.algorithm == "sb"

    def test_hand_built_ess_stays_serial(self, toy_sb):
        assert par.spec_for(toy_sb) is None

    def test_subclasses_stay_serial(self, isolated_cache):
        from repro.ess.dependence import (
            CorrelatedSpillBound,
            CorrelationSpec,
        )

        instance = workloads.load("2D_Q91", profile="smoke")
        algo = CorrelatedSpillBound(
            instance.ess, [CorrelationSpec(0, 1, 0.3)], instance.contours
        )
        assert par.spec_for(algo) is None

    def test_mismatched_contours_stay_serial(self, isolated_cache):
        from repro.ess.contours import ContourSet

        instance = workloads.load("2D_Q91", profile="smoke")
        other = ContourSet(instance.ess, cost_ratio=3.0)
        assert par.spec_for(SpillBound(instance.ess, other)) is None

    def test_pb_spec_carries_lambda(self, isolated_cache):
        from repro.core.plan_bouquet import PlanBouquet

        instance = workloads.load("2D_Q91", profile="smoke")
        pb = PlanBouquet(instance.ess, instance.contours, lam=0.5)
        spec = par.spec_for(pb)
        assert dict(spec.algo_kwargs)["lam"] == 0.5


class TestFanoutDecision:
    def test_one_worker(self):
        assert par.fanout_decision(10_000, 1) == (1, "one_worker")

    def test_single_cpu(self, monkeypatch):
        monkeypatch.delenv("REPRO_FORCE_PARALLEL", raising=False)
        assert par.fanout_decision(10_000, 4, cpus=1) == (1, "single_cpu")

    def test_small_sweep(self, monkeypatch):
        monkeypatch.delenv("REPRO_FORCE_PARALLEL", raising=False)
        assert par.fanout_decision(100, 4, cpus=4) == (1, "small_sweep")

    def test_below_amortization(self, monkeypatch):
        monkeypatch.delenv("REPRO_FORCE_PARALLEL", raising=False)
        monkeypatch.setattr(par, "MIN_POINTS_PER_WORKER", 300)
        assert par.fanout_decision(500, 4, cpus=4) == (
            1, "below_amortization")

    def test_workers_clamped_to_amortizable_share(self, monkeypatch):
        monkeypatch.delenv("REPRO_FORCE_PARALLEL", raising=False)
        assert par.fanout_decision(300, 16, cpus=8) == (4, None)

    def test_force_bypasses_guard(self, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
        assert par.fanout_decision(10, 4, cpus=1) == (4, None)

    def test_skips_are_counted(self, isolated_cache, monkeypatch):
        from repro.obs.metrics import REGISTRY

        monkeypatch.delenv("REPRO_FORCE_PARALLEL", raising=False)
        instance = workloads.load("2D_Q91", profile="smoke")
        spec = par.spec_for(SpillBound(instance.ess, instance.contours))
        REGISTRY.reset()
        # 100 points < MIN_PARALLEL_POINTS (or 1 CPU): the guard declines
        # and the caller falls back to the serial path.
        assert par.parallel_suboptimality(spec, range(100), 4) is None
        assert REGISTRY.counter("parallel_sweep_skipped") == 1


class TestParallelSweep:
    @pytest.fixture
    def forced_pool(self, monkeypatch):
        """Make the fan-out actually run on any host (1-CPU CI included)."""
        monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")

    @pytest.mark.parametrize("algo_key", ["pb", "sb", "ab"])
    def test_parallel_matches_loop_exactly(self, isolated_cache,
                                           forced_pool, algo_key):
        from repro.core.aligned_bound import AlignedBound
        from repro.core.plan_bouquet import PlanBouquet

        classes = {"pb": PlanBouquet, "sb": SpillBound, "ab": AlignedBound}
        instance = workloads.load("2D_Q91", profile="smoke")
        cls = classes[algo_key]
        serial = evaluate_algorithm(cls(instance.ess, instance.contours),
                                    engine="loop")
        parallel = evaluate_algorithm(cls(instance.ess, instance.contours),
                                      workers=2, engine="parallel")
        assert np.array_equal(serial.suboptimality, parallel.suboptimality)
        assert serial.mso == parallel.mso
        assert serial.worst_location == parallel.worst_location

    def test_restricted_points_parallel(self, isolated_cache, forced_pool):
        instance = workloads.load("2D_Q91", profile="smoke")
        points = [3, 17, 50, 77, 99]
        serial = evaluate_algorithm(
            SpillBound(instance.ess, instance.contours),
            points=points, engine="loop",
        )
        parallel = evaluate_algorithm(
            SpillBound(instance.ess, instance.contours),
            points=points, workers=2, engine="parallel",
        )
        assert np.array_equal(serial.suboptimality, parallel.suboptimality)
        assert parallel.worst_location in points

    def test_serial_default_unchanged(self, isolated_cache, monkeypatch):
        """Without REPRO_WORKERS the sweep never touches a process pool."""
        monkeypatch.delenv("REPRO_FORCE_PARALLEL", raising=False)
        instance = workloads.load("2D_Q91", profile="smoke")
        evaluation = evaluate_algorithm(
            SpillBound(instance.ess, instance.contours)
        )
        assert evaluation.suboptimality.shape == (100,)
