"""Tests for the TPC-DS / JOB workload definitions and the registry."""

import pytest

from repro import QueryError, ReproError, build_query, q1a, suite_names
from repro.bench import workloads
from repro.catalog.tpcds import EPP_SELECTIONS, QUERY_BUILDERS


class TestQueryBuilders:
    @pytest.mark.parametrize("name", sorted(QUERY_BUILDERS))
    def test_base_queries_build(self, name):
        query = QUERY_BUILDERS[name]()
        assert len(query.tables) >= 3  # extended suite has 3-table stars
        assert query.join_graph.is_connected()
        assert query.num_epps == len(query.joins)  # all joins epp-able

    def test_paper_suite_has_four_plus_relations(self):
        from repro import suite_names

        for name in suite_names():
            query = build_query(name)
            assert len(query.tables) >= 4  # paper Section 6.1

    def test_extended_suite_builds(self):
        from repro.catalog.tpcds import extended_suite_names

        for name in extended_suite_names():
            query = build_query(name)
            assert query.num_epps == int(name.split("D_")[0])

    @pytest.mark.parametrize("name", sorted(EPP_SELECTIONS))
    def test_suite_instances_have_declared_dimensionality(self, name):
        query = build_query(name)
        expected = int(name.split("D_")[0])
        assert query.num_epps == expected
        assert query.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(QueryError):
            build_query("9D_Q99")

    def test_suite_names_all_resolvable(self):
        for name in suite_names():
            assert build_query(name).num_epps == int(name.split("D_")[0])

    def test_q91_geometry_is_branch(self):
        assert build_query("6D_Q91").join_graph.geometry() == "branch"

    def test_q7_geometry_is_star(self):
        assert build_query("4D_Q7").join_graph.geometry() == "star"

    def test_q18_uses_demographics_alias(self):
        query = build_query("6D_Q18")
        assert "customer_demographics_2" in query.tables

    def test_epps_are_join_predicates(self):
        for name in suite_names():
            query = build_query(name)
            for pred in query.epps:
                assert hasattr(pred, "left_table")  # JoinPredicate

    def test_true_locations_within_unit_cube(self):
        for name in suite_names():
            for sel in build_query(name).true_location():
                assert 0 < sel <= 1


class TestJob:
    def test_q1a_default_three_epps(self):
        query = q1a()
        assert query.num_epps == 3
        assert not query.join_graph.has_cycle()  # implicit preds shut off

    def test_q1a_epps_configurable(self):
        assert q1a(num_epps=2).num_epps == 2
        assert q1a(num_epps=4).num_epps == 4

    def test_q1a_chain_geometry(self):
        assert q1a().join_graph.geometry() == "chain"


class TestRegistry:
    def test_load_caches(self):
        a = workloads.load("3D_Q15", profile="smoke")
        b = workloads.load("3D_Q15", profile="smoke")
        assert a is b

    def test_load_job_instance(self):
        instance = workloads.load("2D_JOB1a", profile="smoke")
        assert instance.num_epps == 2

    def test_qa_within_grid(self):
        instance = workloads.load("3D_Q15", profile="smoke")
        coords = instance.qa_coords()
        grid = instance.ess.grid
        sels = [grid.selectivity(d, c) for d, c in enumerate(coords)]
        truth = instance.query.true_location()
        for sel, true_sel in zip(sels, truth):
            assert sel == pytest.approx(true_sel, rel=2.0)  # on-grid snap

    def test_resolution_override(self):
        instance = workloads.load("3D_Q15", resolution=5)
        assert instance.ess.grid.shape == (5, 5, 5)

    def test_unknown_profile_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "bogus")
        with pytest.raises(ReproError, match="from REPRO_PROFILE"):
            workloads.load("2D_Q91")
        with pytest.raises(ReproError, match="from --profile"):
            workloads.load("2D_Q91", profile="bogus")

    def test_profiles_table_complete(self):
        for profile in workloads.RESOLUTION_PROFILES.values():
            assert set(profile) == {2, 3, 4, 5, 6}
