"""Integration tests: engine-driven discovery and the wall-clock pieces."""

import numpy as np
import pytest

from repro import (
    ContourSet,
    DataGenerator,
    ESS,
    ESSGrid,
    ForeignKey,
    Schema,
    SpillBound,
    SPJQuery,
    Table,
    filter_pred,
    fk_column,
    join,
    key_column,
)
from repro.core.aligned_bound import AlignedBound
from repro.engine.driver import (
    EngineDiscoveryDriver,
    measured_join_selectivity,
    measured_location,
    native_run,
    oracle_run,
)


@pytest.fixture(scope="module")
def setup():
    schema = Schema("drv", tables=[
        Table("dim", 200, [key_column("d_id", 200),
                           fk_column("ignore", 10)]),
        Table("fact", 8_000, [fk_column("f_dim_id", 200, indexed=True),
                              fk_column("f_cust_id", 300, indexed=True)]),
        Table("cust", 300, [key_column("c_id", 300)]),
    ], foreign_keys=[
        ForeignKey("fact", "f_dim_id", "dim", "d_id"),
        ForeignKey("fact", "f_cust_id", "cust", "c_id"),
    ])
    query = SPJQuery("drv2d", schema, ["dim", "fact", "cust"], joins=[
        join("dim", "d_id", "fact", "f_dim_id", selectivity=5e-3,
             error_prone=True),
        join("cust", "c_id", "fact", "f_cust_id", selectivity=3e-3,
             error_prone=True),
    ])
    gen = DataGenerator(schema, seed=17)
    gen.generate_table("dim")
    gen.generate_table("cust")
    gen.generate_table("fact", fk_skew={"f_dim_id": 1.0, "f_cust_id": 0.6})
    ess = ESS.build(query, ESSGrid(2, resolution=16, sel_min=1e-4))
    contours = ContourSet(ess)
    return query, gen, ess, contours


A_ATTR_IS_1 = filter_pred("a", "a_attr", "=", 1, selectivity=0.25)


def ab_instance(fk_skew=None):
    """A 100-row ``a`` and a 500-row ``b`` referencing it, generated."""
    schema = Schema("f", tables=[
        Table("a", 100, [key_column("a_id", 100),
                         fk_column("a_attr", 4)]),
        Table("b", 500, [fk_column("b_a_id", 100, indexed=True)]),
    ], foreign_keys=[ForeignKey("b", "b_a_id", "a", "a_id")])
    gen = DataGenerator(schema, seed=2)
    gen.generate_table("a")
    gen.generate_table("b", fk_skew=fk_skew)
    return schema, gen


def ab_query(schema, name, filters=()):
    return SPJQuery(name, schema, ["a", "b"], joins=[
        join("a", "a_id", "b", "b_a_id", selectivity=0.01,
             error_prone=True)], filters=list(filters))


class TestMeasurement:
    def test_measured_selectivity_definition(self, setup):
        query, gen, _, _ = setup
        sel = measured_join_selectivity(gen, query, query.joins[0])
        dim = gen.table("dim")
        fact = gen.table("fact")
        counts = np.bincount(fact.column("f_dim_id"), minlength=200)
        expected = counts[dim.column("d_id")].sum() / (200 * 8_000)
        assert sel == pytest.approx(expected)

    def test_measured_location_length(self, setup):
        query, gen, _, _ = setup
        qa = measured_location(gen, query)
        assert len(qa) == 2
        assert all(0 < s <= 1 for s in qa)

    def test_filters_shrink_measurement(self):
        schema, gen = ab_instance()
        query_all = ab_query(schema, "qa")
        query_filtered = ab_query(schema, "qf", [A_ATTR_IS_1])
        sel_all = measured_join_selectivity(gen, query_all,
                                            query_all.joins[0])
        sel_f = measured_join_selectivity(gen, query_filtered,
                                          query_filtered.joins[0])
        assert sel_all > 0
        assert sel_f != sel_all  # the filtered denominator differs

    def test_memo_tells_same_named_queries_apart_by_filters(self):
        schema, gen = ab_instance(fk_skew={"b_a_id": 1.2})
        plain = ab_query(schema, "same_name")
        filtered = ab_query(schema, "same_name", [A_ATTR_IS_1])
        sel_plain = measured_join_selectivity(gen, plain, plain.joins[0])
        sel_f = measured_join_selectivity(gen, filtered, filtered.joins[0])
        kept = gen.table("a").column("a_attr") == 1
        refs = np.bincount(gen.table("b").column("b_a_id"), minlength=100)
        assert sel_plain == refs.sum() / (100 * 500)
        assert sel_f == int(refs[kept].sum()) / (int(kept.sum()) * 500)
        assert sel_f != sel_plain

    def test_unknown_filter_op_raises(self):
        from repro.errors import ExecutionError

        schema, gen = ab_instance()
        bad = filter_pred("a", "a_attr", "=", 1, selectivity=0.25)
        object.__setattr__(bad, "op", "!=")  # past the constructor's check
        query = ab_query(schema, "q", [bad])
        with pytest.raises(ExecutionError, match="unsupported filter op"):
            measured_join_selectivity(gen, query, query.joins[0])


class TestEngineDiscovery:
    def test_sb_driver_completes_with_correct_results(self, setup):
        query, gen, ess, contours = setup
        qa = measured_location(gen, query)
        oracle = oracle_run(ess, gen, qa)
        report = EngineDiscoveryDriver(SpillBound(ess, contours), gen).run()
        assert report.rows_out == oracle.rows_out
        assert report.completed_plan_key

    def test_ab_driver_completes_with_correct_results(self, setup):
        query, gen, ess, contours = setup
        qa = measured_location(gen, query)
        oracle = oracle_run(ess, gen, qa)
        report = EngineDiscoveryDriver(AlignedBound(ess, contours), gen).run()
        assert report.rows_out == oracle.rows_out

    def test_killed_steps_cost_their_budget(self, setup):
        query, gen, ess, contours = setup
        report = EngineDiscoveryDriver(SpillBound(ess, contours), gen).run()
        for step in report.steps:
            if not step.completed:
                assert step.charged == pytest.approx(step.budget)
            else:
                assert step.charged <= step.budget * (1 + 1e-9)

    def test_total_is_sum_of_steps(self, setup):
        query, gen, ess, contours = setup
        report = EngineDiscoveryDriver(SpillBound(ess, contours), gen).run()
        assert report.total_cost == pytest.approx(
            sum(s.charged for s in report.steps)
        )

    def test_engine_subopt_close_to_simulation(self, setup):
        """The engine-driven run should land near the cost-model
        simulation (same contours, same plans, measured cardinalities)."""
        query, gen, ess, contours = setup
        qa = measured_location(gen, query)
        oracle = oracle_run(ess, gen, qa)
        sim = SpillBound(ess, contours).run(ess.grid.snap(qa))
        report = EngineDiscoveryDriver(SpillBound(ess, contours), gen).run()
        engine_subopt = report.total_cost / oracle.cost_spent
        assert engine_subopt == pytest.approx(sim.suboptimality, rel=0.75)

    def test_native_and_oracle_agree_on_rows(self, setup):
        query, gen, ess, _ = setup
        qa = measured_location(gen, query)
        oracle = oracle_run(ess, gen, qa)
        native = native_run(ess, gen)
        assert oracle.rows_out == native.rows_out
        assert native.cost_spent >= oracle.cost_spent * 0.99


class TestWallclockHarness:
    def test_run_wallclock_shape(self):
        from repro.bench.harness import run_wallclock

        result = run_wallclock(row_budget=6_000, seed=4)
        assert result["rows_match"]
        assert result["native_subopt"] >= 1.0 - 1e-6
        assert result["sb_subopt"] >= 1.0 - 1e-6
        assert result["sb_steps"] >= 1
