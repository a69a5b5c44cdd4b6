"""Tests for the multiprocess sweep engine (repro.perf.parallel).

Workers inherit the live algorithm by fork, so anything the batch
engine covers fans out — registry workloads, hand-built surfaces,
wallclock setups, lazy surfaces — and must match the loop bit for bit.
"""

import os

import numpy as np
import pytest

from repro.bench import workloads
from repro.core.mso import evaluate_algorithm
from repro.core.plan_bouquet import PlanBouquet
from repro.core.spill_bound import SpillBound
from repro.errors import ReproError
from repro.obs.metrics import REGISTRY
from repro.perf import parallel as par


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ess-cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    workloads.clear_cache()
    yield
    workloads.clear_cache()


def _assert_fans_out_like_loop(make, points=None):
    """A named 2-worker fan-out equals the loop and really ran a pool."""
    loop = evaluate_algorithm(make(), points=points, engine="loop")
    before = REGISTRY.counter("parallel_sweeps")
    parallel = evaluate_algorithm(make(), points=points, workers=2,
                                  engine="parallel")
    assert REGISTRY.counter("parallel_sweeps") == before + 1
    assert np.array_equal(loop.suboptimality, parallel.suboptimality)
    assert loop.worst_location == parallel.worst_location


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
        with pytest.raises(ReproError, match="REPRO_WORKERS"):
            par.worker_count()


class TestFanoutDecision:
    """Fan-out runs when named, with more than one worker, on a type the
    batch engine covers — and nothing else vetoes it."""

    def test_one_worker(self, toy_sb):
        assert par.parallel_suboptimality(toy_sb, range(50), 1) is None

    def test_single_cpu(self, toy_sb, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        _assert_fans_out_like_loop(lambda: toy_sb)

    def test_small_sweep(self, toy_sb):
        _assert_fans_out_like_loop(lambda: toy_sb, points=[3, 17, 250])

    def test_subclasses_stay_serial(self, isolated_cache):
        from repro.ess.dependence import (
            CorrelatedSpillBound,
            CorrelationSpec,
        )

        instance = workloads.load("2D_Q91", profile="smoke")
        algo = CorrelatedSpillBound(
            instance.ess, [CorrelationSpec(0, 1, 0.3)], instance.contours
        )
        assert par.parallel_suboptimality(algo, range(100), 2) is None


class TestParallelSweep:
    @pytest.mark.parametrize("algo_key", ["pb", "sb", "ab"])
    def test_parallel_matches_loop_exactly(self, isolated_cache, algo_key):
        from repro.core.aligned_bound import AlignedBound

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

    def test_restricted_points_parallel(self, isolated_cache):
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
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        instance = workloads.load("2D_Q91", profile="smoke")
        before = REGISTRY.counter("parallel_sweeps")
        evaluation = evaluate_algorithm(
            SpillBound(instance.ess, instance.contours), engine="parallel"
        )
        assert evaluation.suboptimality.shape == (100,)
        assert REGISTRY.counter("parallel_sweeps") == before

    def test_hand_built_ess_fans_out(self, toy_ess, toy_contours):
        _assert_fans_out_like_loop(lambda: SpillBound(toy_ess, toy_contours))

    def test_pb_lambda_is_inherited(self, isolated_cache):
        instance = workloads.load("2D_Q91", profile="smoke")
        _assert_fans_out_like_loop(
            lambda: PlanBouquet(instance.ess, instance.contours, lam=0.5))

    def test_wallclock_surface_fans_out(self):
        from repro.bench.wallclock import build_wallclock_setup

        setup = build_wallclock_setup(row_budget=6_000, seed=7, resolution=4)
        _assert_fans_out_like_loop(
            lambda: SpillBound(setup.ess, setup.contours))

    def test_lazy_restricted_sweep_fans_out(self, isolated_cache):
        from repro.core.aligned_bound import AlignedBound

        instance = workloads.load("2D_Q42", profile="smoke", ess_mode="lazy")
        assert instance.ess.is_lazy
        _assert_fans_out_like_loop(
            lambda: AlignedBound(instance.ess, instance.contours),
            points=[0, 9, 42, 55, 99])


class TestForcedParallelIdentity:
    def test_parallel_sweep_matches_batch(self, isolated_cache):
        """End to end: forked workers sweep the parent's surface and the
        result is bit-identical to serial."""
        instance = workloads.load("2D_Q42", profile="smoke")
        serial = evaluate_algorithm(
            SpillBound(instance.ess, instance.contours), engine="batch"
        )
        before = REGISTRY.counter("parallel_sweeps")
        parallel = evaluate_algorithm(
            SpillBound(instance.ess, instance.contours),
            workers=2, engine="parallel",
        )
        assert np.array_equal(serial.suboptimality, parallel.suboptimality)
        assert serial.mso == parallel.mso
        assert serial.worst_location == parallel.worst_location
        assert REGISTRY.counter("parallel_sweeps") == before + 1
