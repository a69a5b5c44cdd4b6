"""Lazy contour-adaptive ESS: bit-identity, economy, and mode plumbing.

The load-bearing property is *bit-identity*: every point a lazy surface
resolves must equal the eager build exactly (``np.array_equal``, never a
tolerance), because the optimizer DP is elementwise per grid location.
Plan *ids* are surface-local (insertion order vs globally sorted), so
identity is always checked through plan *keys*.
"""

import numpy as np
import pytest

from repro import ContourSet, ESSGrid, PlanBouquet, SpillBound, settings
from repro.core.aligned_bound import AlignedBound
from repro.core.mso import evaluate_algorithm
from repro.errors import ReproError
from repro.ess.lazy import LazyContourSet, LazyESS, contours_for
from repro.ess.ocs import ESS
from tests.conftest import fuzz_seeds, make_star_query

SEEDS = fuzz_seeds([2, 7, 19])

_ALGORITHMS = {
    "pb": PlanBouquet,
    "sb": SpillBound,
    "ab": AlignedBound,
}


def _build_pair(num_epps=3, resolution=8):
    """Fresh (eager, lazy) surfaces of the same star workload."""
    query = make_star_query(num_epps)
    eager = ESS.build(
        query, ESSGrid(num_epps, resolution=resolution, sel_min=1e-6)
    )
    lazy = LazyESS(
        query, ESSGrid(num_epps, resolution=resolution, sel_min=1e-6)
    )
    return eager, lazy


def _keys_at(ess, flats):
    """Plan keys chosen at ``flats`` (the id-portable identity check)."""
    pids = np.asarray(ess.plan_ids[np.asarray(flats, dtype=np.int64)])
    return [ess.plan_keys[int(pid)] for pid in np.ravel(pids)]


@pytest.fixture(scope="module")
def pair():
    return _build_pair()


@pytest.fixture(scope="module")
def contour_pair(pair):
    eager, lazy = pair
    return ContourSet(eager), contours_for(lazy, 2.0)


class TestModeResolution:
    def test_default_is_eager(self, monkeypatch):
        monkeypatch.delenv("REPRO_ESS", raising=False)
        assert settings.get("REPRO_ESS") == "eager"
        assert settings.get("REPRO_ESS", None) == "eager"

    def test_explicit_modes(self):
        assert settings.get("REPRO_ESS", "eager") == "eager"
        assert settings.get("REPRO_ESS", "lazy") == "lazy"
        assert settings.get("REPRO_ESS", " LAZY ") == "lazy"

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_ESS", "lazy")
        assert settings.get("REPRO_ESS") == "lazy"

    def test_bad_explicit_mode(self):
        with pytest.raises(ReproError, match=r"--ess"):
            settings.get("REPRO_ESS", "greedy")

    def test_bad_env_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_ESS", "greedy")
        with pytest.raises(ReproError, match="REPRO_ESS"):
            settings.get("REPRO_ESS")

    def test_class_selectors(self, pair):
        eager, lazy = pair
        assert type(contours_for(eager, 2.0)) is ContourSet
        assert type(contours_for(lazy, 2.0)) is LazyContourSet
        assert settings.SETTINGS["REPRO_ESS"].choices == ("eager", "lazy")


class TestBitIdentity:
    def test_resolved_points_match_eager(self, pair):
        eager, lazy = pair
        rng = np.random.default_rng(29)
        flats = rng.choice(eager.grid.num_points, size=200, replace=False)
        lazy.resolve(flats)
        assert np.array_equal(
            lazy.optimal_cost_at(flats), eager.optimal_cost_at(flats)
        )
        assert _keys_at(lazy, flats) == _keys_at(eager, flats)

    def test_full_materialization_is_bit_identical(self, pair):
        eager, lazy = pair
        lazy.resolve_all()
        assert np.array_equal(
            np.asarray(lazy.optimal_cost), np.asarray(eager.optimal_cost)
        )
        everything = np.arange(eager.grid.num_points)
        assert _keys_at(lazy, everything) == _keys_at(eager, everything)
        assert sorted(lazy.plan_keys) == sorted(eager.plan_keys)

    def test_cost_extremes_match(self, pair):
        eager, lazy = pair
        assert float(lazy.min_cost) == float(eager.min_cost)
        assert float(lazy.max_cost) == float(eager.max_cost)

    def test_contour_budgets_and_members_match(self, contour_pair):
        eager_cs, lazy_cs = contour_pair
        assert lazy_cs.num_contours == eager_cs.num_contours
        for k in range(1, eager_cs.num_contours + 1):
            e, l = eager_cs.contour(k), lazy_cs.contour(k)
            assert l.budget == e.budget
            assert np.array_equal(np.sort(l.points), np.sort(e.points))

    def test_band_assignment_matches(self, contour_pair):
        eager_cs, lazy_cs = contour_pair
        assert np.array_equal(
            np.asarray(lazy_cs.band), np.asarray(eager_cs.band)
        )


class TestDiscoveryIdentity:
    @pytest.mark.parametrize("algo", ["pb", "sb", "ab"])
    def test_single_run_identical(self, pair, contour_pair, algo):
        eager, lazy = pair
        eager_cs, lazy_cs = contour_pair
        qa = eager.grid.snap(eager.query.true_location())
        cls = _ALGORITHMS[algo]
        res_e = cls(eager, eager_cs).run(qa, trace=True)
        res_l = cls(lazy, lazy_cs).run(qa, trace=True)
        assert repr(res_l.total_cost) == repr(res_e.total_cost)
        assert repr(res_l.optimal_cost) == repr(res_e.optimal_cost)
        assert repr(res_l.suboptimality) == repr(res_e.suboptimality)
        keys_e = [eager.plan_keys[r.plan_id] for r in res_e.executions]
        keys_l = [lazy.plan_keys[r.plan_id] for r in res_l.executions]
        assert keys_l == keys_e

    def test_exhaustive_sweep_identical(self):
        eager, lazy = _build_pair(num_epps=2, resolution=10)
        eager_eval = evaluate_algorithm(
            SpillBound(eager, ContourSet(eager)), engine="batch"
        )
        lazy_eval = evaluate_algorithm(
            SpillBound(lazy, contours_for(lazy, 2.0)), engine="batch"
        )
        assert np.array_equal(
            lazy_eval.suboptimality, eager_eval.suboptimality
        )
        assert lazy_eval.mso == eager_eval.mso
        assert lazy_eval.aso == eager_eval.aso

    def test_restricted_sweep_identical(self):
        eager, lazy = _build_pair(num_epps=2, resolution=10)
        rng = np.random.default_rng(31)
        points = sorted(
            rng.choice(eager.grid.num_points, size=17, replace=False)
        )
        eager_eval = evaluate_algorithm(
            SpillBound(eager, ContourSet(eager)), points=points,
            engine="batch",
        )
        lazy_eval = evaluate_algorithm(
            SpillBound(lazy, contours_for(lazy, 2.0)), points=points,
            engine="batch",
        )
        assert np.array_equal(
            lazy_eval.suboptimality, eager_eval.suboptimality
        )


class TestLazyViews:
    def test_extremes_do_not_materialize(self):
        _, lazy = _build_pair()
        before = lazy.num_resolved
        lazy.optimal_cost.min()
        lazy.optimal_cost.max()
        assert lazy.num_resolved == before

    def test_scalar_and_negative_indexing(self, pair):
        eager, lazy = pair
        assert lazy.optimal_cost[5] == eager.optimal_cost[5]
        assert lazy.optimal_cost[-1] == eager.optimal_cost[-1]
        assert lazy.plan_ids.shape == eager.plan_ids.shape

    def test_fancy_and_boolean_indexing(self, pair):
        eager, lazy = pair
        idx = np.array([[3, 9], [27, 81]])
        assert np.array_equal(
            lazy.optimal_cost[idx], eager.optimal_cost[idx]
        )
        mask = np.zeros(eager.grid.num_points, dtype=bool)
        mask[::37] = True
        assert np.array_equal(
            lazy.optimal_cost[mask], eager.optimal_cost[mask]
        )

    def test_arithmetic_and_comparison(self, pair):
        eager, lazy = pair
        assert np.array_equal(
            lazy.optimal_cost / 2.0, np.asarray(eager.optimal_cost) / 2.0
        )
        assert np.array_equal(
            lazy.optimal_cost <= eager.max_cost,
            np.asarray(eager.optimal_cost) <= eager.max_cost,
        )

    def test_views_are_unhashable(self, pair):
        _, lazy = pair
        with pytest.raises(TypeError):
            hash(lazy.optimal_cost)

    def test_band_view_scalar(self, contour_pair):
        eager_cs, lazy_cs = contour_pair
        assert lazy_cs.band[11] == eager_cs.band[11]


class TestEconomy:
    def test_discovery_resolves_a_strict_subset(self):
        _, lazy = _build_pair()
        contours = contours_for(lazy, 2.0)
        qa = lazy.grid.snap(lazy.query.true_location())
        SpillBound(lazy, contours).run(qa)
        assert 0 < lazy.optimizer_calls < lazy.grid.num_points

    def test_single_contour_resolves_less_than_sublevel(self):
        _, lazy = _build_pair()
        contours = contours_for(lazy, 2.0)
        mid = max(1, contours.num_contours // 2)
        contours.contour(mid)
        assert lazy.num_resolved < lazy.grid.num_points

    def test_optimizer_call_counter_matches_registry(self):
        from repro.obs.metrics import REGISTRY

        _, lazy = _build_pair(num_epps=2, resolution=6)
        before = lazy.optimizer_calls
        count = lazy.resolve(np.arange(7))
        assert lazy.optimizer_calls - before == count
        assert REGISTRY.counter("ess_optimizer_calls") >= count


class TestWalkEconomy:
    """The shell walk resolves what the per-box walk of PR 14 resolved,
    in one optimizer call per recursion round."""

    #: First-touch SpillBound run at the true location of 4D_Q26 at
    #: resolution 20, as measured at the parent commit (which issued 304
    #: optimizer calls for it: one per box wholly inside a band).
    PARENT_RESOLVED = 3949
    PARENT_MASK_CRC = 1282122197

    @pytest.fixture
    def first_touch(self):
        from repro.bench import workloads
        from repro.obs import trace
        from repro.obs.metrics import REGISTRY

        workloads.clear_cache()
        instance = workloads.load("4D_Q26", profile="smoke", resolution=20,
                                  ess_mode="lazy")
        tracer = trace.Tracer()
        previous = trace.install_tracer(tracer)
        before = {name: REGISTRY.counter(name)
                  for name in ("ess_lazy_resolves", "ess_optimizer_calls")}
        try:
            SpillBound(instance.ess, instance.contours).run(
                instance.query.true_location(), trace=True)
        finally:
            trace.install_tracer(previous)
            workloads.clear_cache()
        spent = {name: REGISTRY.counter(name) - count
                 for name, count in before.items()}
        shells = [span.attrs for span in tracer.spans
                  if span.name == "ess.lazy.contour_shell"]
        return instance.ess, shells, spent

    def test_resolves_exactly_the_parents_points(self, first_touch):
        import zlib

        lazy, _, spent = first_touch
        assert lazy.num_resolved == self.PARENT_RESOLVED
        # Construction resolved the two extreme corners before counting.
        assert spent["ess_optimizer_calls"] == self.PARENT_RESOLVED - 2
        packed = np.packbits(lazy._resolved_mask).tobytes()
        assert zlib.crc32(packed) == self.PARENT_MASK_CRC

    def test_one_optimizer_call_per_round(self, first_touch):
        import math

        lazy, shells, spent = first_touch
        assert shells
        # Per shell: a call per box-recursion round, then two bisections
        # of ceil(log2(resolution)) probes and the call for their spans.
        bisection = 2 * math.ceil(math.log2(max(lazy.grid.resolution))) + 1
        for shell in shells:
            assert shell["resolve_calls"] <= shell["rounds"] + bisection
        assert sum(s["points"] for s in shells) <= spent["ess_optimizer_calls"]
        budget = sum(s["rounds"] + bisection for s in shells)
        assert budget < 304  # the bound below has teeth
        assert spent["ess_lazy_resolves"] <= budget


class TestRandomizedDifferential:
    """PR-4's workload generator drives lazy-vs-eager differentials."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_conformance_workload_surfaces_match(self, seed):
        from repro.conformance import workloads as cw

        cw.clear_cache()
        eager = cw.build_conformance_instance(
            seed, use_cache=False, ess_mode="eager"
        )
        lazy = cw.build_conformance_instance(
            seed, use_cache=False, ess_mode="lazy"
        )
        assert lazy.ess.is_lazy and not eager.ess.is_lazy
        lazy.ess.resolve_all()
        assert np.array_equal(
            np.asarray(lazy.ess.optimal_cost),
            np.asarray(eager.ess.optimal_cost),
        )
        everything = np.arange(eager.ess.grid.num_points)
        assert _keys_at(lazy.ess, everything) == _keys_at(
            eager.ess, everything
        )
        cw.clear_cache()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_conformance_workload_sweeps_match(self, seed):
        from repro.conformance import workloads as cw

        cw.clear_cache()
        evals = {}
        for mode in ("eager", "lazy"):
            instance = cw.build_conformance_instance(
                seed, use_cache=False, ess_mode=mode
            )
            algorithm = SpillBound(instance.ess, instance.contours)
            evals[mode] = evaluate_algorithm(algorithm, engine="batch")
        assert np.array_equal(
            evals["lazy"].suboptimality, evals["eager"].suboptimality
        )
        cw.clear_cache()


class TestConformanceSuiteLazy:
    def test_seeded_check_passes_on_lazy(self):
        """``repro check`` on lazy surfaces: zero violations (ISSUE 6)."""
        from repro.conformance.suite import run_suite

        report = run_suite(
            num_workloads=2, base_seed=5, engines=("loop", "batch"),
            trace_samples=2, use_cache=False, ess_mode="lazy",
        )
        assert report.ok
        assert not report.monitor.violations


class TestWorkloadRegistryWiring:
    def test_load_lazy_mode(self, monkeypatch, tmp_path):
        from repro.bench import workloads

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        workloads.clear_cache()
        instance = workloads.load("2D_Q42", profile="smoke",
                                  ess_mode="lazy")
        assert isinstance(instance.ess, LazyESS)
        assert isinstance(instance.contours, LazyContourSet)
        assert instance.ess.provenance["disk_key"]["query_name"] == "2D_Q42"
        workloads.clear_cache()

    def test_modes_get_distinct_registry_entries(self, monkeypatch,
                                                 tmp_path):
        from repro.bench import workloads

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        workloads.clear_cache()
        lazy = workloads.load("2D_Q42", profile="smoke", ess_mode="lazy")
        eager = workloads.load("2D_Q42", profile="smoke", ess_mode="eager")
        assert lazy is not eager
        assert isinstance(eager.ess, ESS) and not eager.ess.is_lazy
        workloads.clear_cache()

    def test_env_mode_reaches_registry(self, monkeypatch, tmp_path):
        from repro.bench import workloads

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_ESS", "lazy")
        workloads.clear_cache()
        instance = workloads.load("2D_Q42", profile="smoke")
        assert instance.ess.is_lazy
        workloads.clear_cache()
