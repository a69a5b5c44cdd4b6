"""End-to-end fuzzing: random workloads through the whole pipeline.

The structural guarantee is supposed to hold for *any* query; these
tests generate random schemas/queries/epp-markings and validate every
invariant on the resulting ESS, contours, and discovery runs.
"""

import numpy as np
import pytest

from repro import (
    AlignedBound,
    ContourSet,
    ESS,
    ESSGrid,
    PlanBouquet,
    SpillBound,
)
from repro.bench.randgen import random_workload
from repro.conformance.monitors import ConformanceMonitor
from repro.core.validate import (
    ValidationError,
    validate_contours,
    validate_ess,
)
from tests.conftest import fuzz_seeds

SEEDS = fuzz_seeds([1, 2, 3, 5, 8, 13, 21, 34])


def build_small(seed):
    query = random_workload(seed)
    resolution = {2: 9, 3: 6, 4: 5}.get(query.num_epps, 4)
    sel_min = [min(1e-5, p.selectivity / 2) for p in query.epps]
    grid = ESSGrid(query.num_epps, resolution=resolution, sel_min=sel_min)
    ess = ESS.build(query, grid)
    return query, ess, ContourSet(ess)


class TestRandomWorkloads:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_generation_is_valid_and_deterministic(self, seed):
        a = random_workload(seed)
        b = random_workload(seed)
        assert a.describe() == b.describe()
        assert a.join_graph.is_connected()
        assert not a.join_graph.has_cycle()
        assert 2 <= a.num_epps <= 3

    def test_different_seeds_differ(self):
        assert random_workload(1).describe() != random_workload(2).describe()


class TestPipelineInvariants:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_ess_and_contours_valid(self, seed):
        _, ess, contours = build_small(seed)
        validate_ess(ess)
        validate_contours(contours)

    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_guarantees_hold_on_random_workloads(self, seed):
        _, ess, contours = build_small(seed)
        algorithms = [
            PlanBouquet(ess, contours),
            SpillBound(ess, contours),
            AlignedBound(ess, contours),
        ]
        rng = np.random.default_rng(seed)
        points = rng.choice(ess.grid.num_points,
                            size=min(24, ess.grid.num_points),
                            replace=False)
        monitor = ConformanceMonitor()
        for algorithm in algorithms:
            for flat in points:
                result = algorithm.run(int(flat), trace=True)
                monitor.check_run(result, algorithm)
        assert monitor.ok, monitor.violations
        assert monitor.counters["runs"] == len(algorithms) * len(points)

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_sb_beats_its_guarantee_comfortably(self, seed):
        """Empirically the structural bound is loose, not tight."""
        from repro import evaluate_algorithm

        _, ess, contours = build_small(seed)
        sb = SpillBound(ess, contours)
        evaluation = evaluate_algorithm(sb)
        assert evaluation.mso <= sb.mso_guarantee() * (1 + 1e-9)


class TestValidators:
    def test_validate_ess_summary(self, toy_ess):
        summary = validate_ess(toy_ess)
        assert summary["posp_size"] == toy_ess.posp_size

    def test_validate_contours_summary(self, toy_contours):
        summary = validate_contours(toy_contours)
        assert summary["num_contours"] == toy_contours.num_contours

    def test_validator_catches_corruption(self, toy_ess):
        import copy

        broken = copy.copy(toy_ess)
        broken.optimal_cost = toy_ess.optimal_cost.copy()
        broken.optimal_cost[5] = broken.optimal_cost.max() * 2
        with pytest.raises(ValidationError):
            validate_ess(broken)

    def test_validator_catches_bad_result(self, toy_sb):
        result = toy_sb.run(100)
        result.total_cost = result.optimal_cost * 1e6
        monitor = ConformanceMonitor()
        monitor.check_run(result, toy_sb)
        assert not monitor.ok
        assert [v.invariant for v in monitor.violations] == ["mso-bound"]

    def test_validator_accepts_good_result(self, toy_sb):
        result = toy_sb.run(100, trace=True)
        monitor = ConformanceMonitor()
        monitor.check_run(result, toy_sb)
        assert monitor.ok, monitor.violations


# ----------------------------------------------------------------------
# Volcano vs vector engine: randomized differential fuzzing
# ----------------------------------------------------------------------

_ENGINE_SEEDS = fuzz_seeds([3, 11, 42])
_ENGINE_INSTANCES = {}


def _engine_instance(seed):
    """A small star-schema instance for engine fuzzing, cached per seed."""
    if seed in _ENGINE_INSTANCES:
        return _ENGINE_INSTANCES[seed]
    from repro import (
        DataGenerator,
        ForeignKey,
        Schema,
        SPJQuery,
        Table,
        filter_pred,
        fk_column,
        join,
        key_column,
    )
    from repro.optimizer.cost_model import DEFAULT_COST_MODEL

    schema = Schema("fuzzvec", tables=[
        Table("a", 70, [key_column("a_id", 70), fk_column("a_x", 6)]),
        Table("f", 1_200, [fk_column("f_a_id", 70, indexed=True),
                           fk_column("f_b_id", 50, indexed=True)]),
        Table("b", 50, [key_column("b_id", 50), fk_column("b_y", 4)]),
    ], foreign_keys=[
        ForeignKey("f", "f_a_id", "a", "a_id"),
        ForeignKey("f", "f_b_id", "b", "b_id"),
    ])
    query = SPJQuery("fuzzvec2d", schema, ["a", "f", "b"], joins=[
        join("a", "a_id", "f", "f_a_id", selectivity=1 / 70,
             error_prone=True),
        join("b", "b_id", "f", "f_b_id", selectivity=1 / 50,
             error_prone=True),
    ], filters=[
        filter_pred("a", "a_x", "=", 1, selectivity=1 / 6),
        filter_pred("b", "b_y", "=", 2, selectivity=1 / 4),
    ])
    gen = DataGenerator(schema, seed=seed)
    gen.generate_table("a")
    gen.generate_table("b")
    gen.generate_table("f", fk_skew={"f_a_id": 0.5 + 0.1 * (seed % 5)})
    _ENGINE_INSTANCES[seed] = (query, gen, DEFAULT_COST_MODEL)
    return _ENGINE_INSTANCES[seed]


def _random_plan(query, rng):
    """A random bushy two-join plan over the star schema.

    Scan methods, join operators, join order, and orientations are all
    drawn at random; INL is only legal when its inner side is a
    single-table scan carrying exactly one join predicate, so when it is
    drawn elsewhere it degrades to NL.
    """
    from repro.optimizer import plans as planlib

    ja, jb = query.epps
    ops = (planlib.HASH_JOIN, planlib.MERGE_JOIN, planlib.NL_JOIN,
           planlib.INDEX_NL_JOIN)
    methods = (planlib.SEQ_SCAN, planlib.INDEX_SCAN)
    scans = {t: planlib.ScanNode(t, methods[rng.integers(2)],
                                 tuple(query.filters_on(t)))
             for t in ("a", "f", "b")}
    first_dim, second_dim = (("a", ja), ("b", jb)) if rng.integers(2) \
        else (("b", jb), ("a", ja))

    def build_join(op, left, right, pred):
        if op == planlib.INDEX_NL_JOIN:
            if isinstance(right, planlib.ScanNode):
                return planlib.JoinNode(op, left, right, (pred,))
            if isinstance(left, planlib.ScanNode):
                return planlib.JoinNode(op, right, left, (pred,))
            op = planlib.NL_JOIN  # no scan side: INL is illegal here
        if rng.integers(2):
            left, right = right, left
        return planlib.JoinNode(op, left, right, (pred,))

    dim_table, pred = first_dim
    low = build_join(ops[rng.integers(4)], scans["f"], scans[dim_table],
                     pred)
    dim_table, pred = second_dim
    return build_join(ops[rng.integers(4)], low, scans[dim_table], pred)


class TestVectorEngineDifferential:
    """Random plans x random budgets x random data: the two engines
    must return identical ExecutionOutcomes, stats and all."""

    @pytest.mark.parametrize("seed", _ENGINE_SEEDS)
    def test_random_plans_and_budgets_identical(self, seed):
        from repro import execute_plan

        query, gen, model = _engine_instance(seed)
        rng = np.random.default_rng(seed * 7 + 1)
        for _ in range(10):
            plan = _random_plan(query, rng)
            full = execute_plan(plan, query, gen, model, engine="volcano")
            assert full.completed
            budgets = [None, full.cost_spent]
            budgets += rng.uniform(5.0, full.cost_spent * 1.05,
                                   size=5).tolist()
            spills = [None, query.epps[int(rng.integers(2))].name]
            for spill in spills:
                for budget in budgets:
                    v = execute_plan(plan, query, gen, model, budget=budget,
                                     spill_epp=spill, engine="volcano")
                    w = execute_plan(plan, query, gen, model, budget=budget,
                                     spill_epp=spill, engine="vector")
                    assert v.completed == w.completed, plan.key
                    assert v.rows_out == w.rows_out, plan.key
                    assert repr(v.cost_spent) == repr(w.cost_spent), plan.key
                    assert set(v.stats) == set(w.stats)
                    for key in v.stats:
                        a, b = v.stats[key], w.stats[key]
                        assert (a.rows_outer, a.rows_inner, a.rows_out) == \
                            (b.rows_outer, b.rows_inner, b.rows_out), \
                            (plan.key, key)

    @pytest.mark.parametrize("seed", _ENGINE_SEEDS[:2])
    def test_random_plans_same_rowcount_across_engines(self, seed):
        """Sanity on the data plane: both engines agree on the full
        result cardinality for every random plan shape."""
        from repro import execute_plan

        query, gen, model = _engine_instance(seed)
        rng = np.random.default_rng(seed + 99)
        counts = set()
        for _ in range(6):
            plan = _random_plan(query, rng)
            v = execute_plan(plan, query, gen, model, engine="volcano")
            w = execute_plan(plan, query, gen, model, engine="vector")
            assert v.rows_out == w.rows_out
            counts.add(w.rows_out)
        assert len(counts) == 1  # every plan computes the same answer
