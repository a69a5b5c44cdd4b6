"""The competing-algorithm arena: rivals, profiles, and the report.

Metamorphic properties pin the rival selectors' semantics:

* uniform cost scaling never changes the penalty-aware choice (the
  expected penalty scales linearly, so the argmin is invariant);
* plan relabeling never changes the minmax-regret choice (selection
  tie-breaks on the canonical plan key, never the surface-local id);
* the degenerate zero-error profile collapses every rival to the plain
  optimizer's choice at the estimate (cost-equality at ``qe``).

Plus: bit-identity across sweep engines, conformance-monitor exemption
for guarantee-less rivals, seeded arena determinism, the clean
unregistered-algorithm errors, and the ``repro arena`` CLI.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.arena.profiles import (
    DEFAULT_PROFILE,
    ErrorProfile,
    as_profile,
    zero_error_profile,
)
from repro.arena.report import ARENA_ALGORITHMS, arena_algorithms, run_arena
from repro.arena.rivals import (
    RIVAL_FACTORIES,
    MinmaxRegretSelector,
    PenaltyAwareSelector,
    ProbabilisticSelector,
)
from repro.cli import main
from repro.conformance.monitors import ConformanceMonitor
from repro.core.mso import evaluate_algorithm
from repro.errors import ReproError
from repro.ess.grid import ESSGrid

pytestmark = pytest.mark.conformance

RIVAL_CLASSES = tuple(RIVAL_FACTORIES.values())


class StubESS:
    """A surface defined directly by a ``(plans, points)`` cost matrix."""

    def __init__(self, grid, costs, keys):
        self.grid = grid
        self._costs = np.asarray(costs, dtype=float)
        self.plan_keys = list(keys)
        self.optimal_cost = self._costs.min(axis=0)
        self.plan_ids = np.argmin(self._costs, axis=0).astype(np.int32)

    def resolve(self, flats):
        pass

    def resolve_all(self):
        pass

    def optimal_cost_at(self, flats):
        return self.optimal_cost[np.asarray(flats, dtype=np.int64)]

    def plan_cost_array(self, plan_id):
        return self._costs[plan_id]

    def plan_cost_at_points(self, plan_id, flats):
        return self._costs[plan_id][np.asarray(flats, dtype=np.int64)]

    def plan_cost_at(self, plan_id, flat):
        return float(self._costs[plan_id][int(flat)])


def make_stub(seed=0, num_plans=5, scale=1.0, permutation=None):
    """A seeded random stub surface, optionally scaled or relabeled."""
    grid = ESSGrid(2, resolution=6)
    rng = np.random.default_rng([0xBEEF, seed])
    costs = rng.uniform(10.0, 500.0, size=(num_plans, grid.num_points))
    keys = [f"plan-{p}" for p in range(num_plans)]
    if permutation is not None:
        costs = costs[list(permutation)]
        keys = [keys[p] for p in permutation]
    return StubESS(grid, costs * scale, keys)


class TestMetamorphic:
    @pytest.mark.parametrize("cls", RIVAL_CLASSES)
    def test_uniform_cost_scaling_is_invariant(self, cls):
        for seed in range(5):
            base = cls(make_stub(seed), estimate=(2, 3))
            scaled = cls(make_stub(seed, scale=7.5), estimate=(2, 3))
            assert (base.ess.plan_keys[base.plan_id]
                    == scaled.ess.plan_keys[scaled.plan_id])

    @pytest.mark.parametrize("cls", RIVAL_CLASSES)
    def test_plan_relabeling_is_invariant(self, cls):
        perm = (3, 0, 4, 1, 2)
        for seed in range(5):
            base = cls(make_stub(seed), estimate=(2, 3))
            shuffled = cls(make_stub(seed, permutation=perm),
                           estimate=(2, 3))
            assert (base.ess.plan_keys[base.plan_id]
                    == shuffled.ess.plan_keys[shuffled.plan_id])

    @pytest.mark.parametrize("cls", RIVAL_CLASSES)
    def test_zero_error_collapses_to_optimizer_choice(self, cls):
        for seed in range(5):
            ess = make_stub(seed)
            qe = (1, 4)
            flat = ess.grid.flat_index(qe)
            rival = cls(ess, profile=zero_error_profile(), estimate=qe)
            # With all mass on qe the chosen plan is cost-optimal there
            # (possibly tied with the native pick, never worse).
            assert ess.plan_cost_at(rival.plan_id, flat) == \
                float(ess.optimal_cost[flat])

    def test_selectors_actually_differ_somewhere(self):
        # The three scoring rules are distinct strategies, not aliases:
        # on at least one seeded surface they disagree.
        picks = set()
        for seed in range(10):
            ess = make_stub(seed, num_plans=8)
            picks.add(tuple(
                cls(ess, estimate=(2, 3)).plan_id
                for cls in (PenaltyAwareSelector, MinmaxRegretSelector,
                            ProbabilisticSelector)))
        assert any(len(set(p)) > 1 for p in picks)


class TestProfiles:
    def test_zero_error_support_is_the_estimate(self):
        grid = ESSGrid(3, resolution=5)
        flats, weights = zero_error_profile().support(grid, (1, 2, 3))
        assert flats.tolist() == [grid.flat_index((1, 2, 3))]
        assert weights.tolist() == [1.0]

    def test_weights_sum_to_one_with_boundary_clipping(self):
        grid = ESSGrid(2, resolution=5)
        for qe in ((0, 0), (4, 4), (2, 0)):
            flats, weights = DEFAULT_PROFILE.support(grid, qe)
            assert np.isclose(weights.sum(), 1.0)
            assert flats.size == np.unique(flats).size

    def test_spec_roundtrip(self):
        profile = ErrorProfile(width=3, spread=0.5, kind="uniform")
        assert profile.spec() == ("error-profile", "uniform", 3, 0.5)
        assert as_profile(profile) is profile
        assert as_profile(None) == DEFAULT_PROFILE

    def test_validation(self):
        with pytest.raises(ReproError, match="kind"):
            ErrorProfile(kind="cauchy")
        with pytest.raises(ReproError, match="width"):
            ErrorProfile(width=-1)
        with pytest.raises(ReproError, match="spread"):
            ErrorProfile(width=2, spread=0.0)
        with pytest.raises(ReproError, match="error profile"):
            as_profile(3.14)


class TestRivalRuns:
    @pytest.mark.parametrize("name", sorted(RIVAL_FACTORIES))
    def test_engines_bit_identical(self, toy_ess, toy_contours, name):
        cls = RIVAL_FACTORIES[name]
        loop = evaluate_algorithm(cls(toy_ess, toy_contours),
                                  engine="loop")
        batch = evaluate_algorithm(cls(toy_ess, toy_contours),
                                   engine="batch")
        assert np.array_equal(loop.suboptimality, batch.suboptimality)
        # Division by an independently computed optimum can round a
        # ulp under 1 where the rival holds the optimal plan.
        assert loop.suboptimality.min() >= 1.0 - 1e-9

    def test_traced_run_is_monitor_exempt(self, toy_ess, toy_contours):
        # Rivals have no mso_guarantee: the monitor must accept their
        # unbounded sub-optimality and their single budget-free record.
        monitor = ConformanceMonitor()
        for cls in RIVAL_CLASSES:
            rival = cls(toy_ess, toy_contours)
            evaluation = evaluate_algorithm(rival, engine="loop")
            result = rival.run(evaluation.worst_location, trace=True)
            monitor.check_run(result, rival)
            monitor.check_sweep(evaluation.suboptimality, rival,
                                engine="loop")
        assert monitor.ok, monitor.violations
        assert not hasattr(cls(toy_ess, toy_contours), "mso_guarantee")

    def test_oracle_floor_still_enforced_for_rivals(self, toy_ess,
                                                    toy_contours):
        monitor = ConformanceMonitor()
        rival = PenaltyAwareSelector(toy_ess, toy_contours)
        result = rival.run(0, trace=True)
        result.total_cost = result.optimal_cost * 0.5
        monitor.check_run(result, rival)
        assert "mso-bound" in monitor.violations_by_invariant()

    def test_parallel_fanout_bit_identical(self):
        from repro.conformance.workloads import build_conformance_instance
        from repro.obs.metrics import REGISTRY

        instance = build_conformance_instance(3)
        estimate = tuple(c + 1 for c in instance.ess.grid.origin)

        def rival():
            return MinmaxRegretSelector(
                instance.ess, instance.contours,
                profile=ErrorProfile(width=1, spread=2.0), estimate=estimate)

        loop = evaluate_algorithm(rival(), engine="loop")
        before = REGISTRY.counter("parallel_sweeps")
        parallel = evaluate_algorithm(rival(), workers=2, engine="parallel")
        assert REGISTRY.counter("parallel_sweeps") == before + 1
        assert np.array_equal(loop.suboptimality, parallel.suboptimality)


class TestArenaReport:
    LINEUP = ("sb", "penalty", "regret")

    def test_arena_rows_and_aggregates(self):
        report = run_arena(num_workloads=2, algorithms=self.LINEUP,
                           engine="batch")
        assert len(report.rows) == 2 * len(self.LINEUP)
        assert report.num_violations == 0
        for row in report.rows:
            assert row.mso >= row.aso >= 1.0 - 1e-9
            if row.algorithm == "sb":
                assert row.guarantee is not None
                assert row.mso <= row.guarantee * (1 + 1e-9)
            else:
                assert row.guarantee is None
        aggregates = report.by_algorithm()
        assert set(aggregates) == set(self.LINEUP)
        payload = report.to_payload()
        json.dumps(payload)  # what `repro arena --json` writes
        assert payload["num_violations"] == 0
        series = dict(report.scatter_series())
        assert all(len(series[name]) == 2 for name in self.LINEUP)

    def test_arena_is_seed_deterministic(self):
        a = run_arena(num_workloads=2, algorithms=self.LINEUP,
                      engine="batch")
        b = run_arena(num_workloads=2, algorithms=self.LINEUP,
                      engine="batch")
        assert [(r.algorithm, r.mso, r.aso) for r in a.rows] == \
            [(r.algorithm, r.mso, r.aso) for r in b.rows]

    def test_adversarial_family_arena(self):
        report = run_arena(num_workloads=1, family="adversarial",
                           algorithms=("sb", "penalty"))
        assert report.num_violations == 0
        by_algo = report.by_algorithm()
        assert by_algo["sb"]["worst_mso"] >= 2.0  # the lower bound
        assert np.isclose(by_algo["penalty"]["worst_mso"], 1.0)

    def test_rejects_bad_inputs(self, toy_ess, toy_contours):
        with pytest.raises(ReproError, match="at least one"):
            run_arena(num_workloads=0)
        with pytest.raises(ReproError, match="family"):
            run_arena(num_workloads=1, family="bogus")
        with pytest.raises(ReproError, match="unknown arena algorithm"):
            arena_algorithms(
                SimpleNamespace(ess=toy_ess, contours=toy_contours),
                algorithms=("sb", "nope"))

    def test_default_lineup_names_resolve(self, toy_ess, toy_contours):
        instance = SimpleNamespace(ess=toy_ess, contours=toy_contours)
        lineup = arena_algorithms(instance)
        assert tuple(lineup) == ARENA_ALGORITHMS


class TestUnregisteredAlgorithmErrors:
    """The satellite regression: opaque KeyErrors became ReproErrors."""

    def test_evaluate_without_run_or_engine(self, toy_ess):
        shell = SimpleNamespace(ess=toy_ess)
        with pytest.raises(ReproError, match="SimpleNamespace"):
            evaluate_algorithm(shell, engine="loop")

    def test_cli_names_the_unknown_algorithm(self, capsys):
        code = main(["evaluate", "2D_Q91", "--algorithms", "pb,bogus"])
        assert code == 2
        assert "bogus" in capsys.readouterr().err


class TestArenaCommand:
    def test_arena_cli_smoke(self, capsys, tmp_path):
        json_path = tmp_path / "arena.json"
        svg_path = tmp_path / "arena.svg"
        code = main(["arena", "--workloads", "1",
                     "--algorithms", "sb,penalty", "--engine", "batch",
                     "--json", str(json_path), "--svg", str(svg_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "penalty" in out and "0 violation(s)" in out
        payload = json.loads(json_path.read_text())
        assert payload["num_violations"] == 0
        assert {row["algorithm"] for row in payload["rows"]} == \
            {"sb", "penalty"}
        assert svg_path.read_text().startswith("<svg")

    def test_arena_cli_rejects_unknowns(self, capsys):
        assert main(["arena", "--workloads", "1",
                     "--family", "bogus"]) == 2
        assert main(["arena", "--workloads", "1",
                     "--profile-kind", "cauchy"]) == 2
        assert main(["arena", "--workloads", "1",
                     "--algorithms", "sb,nope"]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "cauchy" in err and "nope" in err
