"""Tests for the deployment session (Section 7 workflow)."""

import pytest

from repro import DiscoveryError
from repro.core.session import RobustSession
from repro.obs.metrics import REGISTRY
from tests.conftest import make_toy_query


@pytest.fixture
def session(tmp_path):
    return RobustSession(cache_dir=tmp_path, algorithm="sb",
                         error_radius=10.0, resolution=10)


class TestPreparation:
    def test_prepare_builds_and_caches(self, session):
        query = make_toy_query()
        first = session.prepare(query)
        second = session.prepare(query)
        assert first is second
        assert first["ess"].posp_size > 0

    def test_persisted_archive_reused(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        query = make_toy_query()
        a = RobustSession(cache_dir=tmp_path, resolution=8)
        a.prepare(query)
        assert len(list(tmp_path.glob("*.ess.npz"))) == 1
        REGISTRY.reset()
        try:
            b = RobustSession(cache_dir=tmp_path, resolution=8)
            bundle = b.prepare(query)
            assert REGISTRY.counter("ess_cache_hit") == 1
        finally:
            REGISTRY.reset()
        assert bundle["ess"].posp_size == a.prepare(query)["ess"].posp_size

    def test_resolution_change_rebuilds(self, tmp_path, monkeypatch):
        """Archives are keyed by the build's content, not the query name:
        a finer session on the same directory must not reload the
        coarser surface an earlier session saved."""
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        query = make_toy_query()
        coarse = RobustSession(cache_dir=tmp_path, resolution=6)
        assert coarse.prepare(query)["ess"].grid.shape == (6, 6)
        fine = RobustSession(cache_dir=tmp_path, resolution=12)
        assert fine.prepare(query)["ess"].grid.shape == (12, 12)
        assert len(list(tmp_path.glob("*.ess.npz"))) == 2

    def test_no_cache_dir_works(self):
        session = RobustSession(cache_dir=None, resolution=8)
        assert session.prepare(make_toy_query())["ess"] is not None

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(DiscoveryError):
            RobustSession(algorithm="bogus")


class TestRouting:
    def test_small_radius_routes_native(self, tmp_path):
        session = RobustSession(cache_dir=tmp_path, error_radius=1.01,
                                resolution=10)
        decision = session.execute(make_toy_query())
        # At a negligible anticipated error the advisor may keep native;
        # whichever route, the outcome is valid.
        assert decision.route in ("native", "ab", "sb")
        assert decision.suboptimality >= 1.0 - 1e-9

    def test_huge_radius_routes_robust(self, session):
        """JOB-shaped queries flip to robust at large error radii."""
        from repro import q1a

        session.base_error_radius = 1e9
        decision = session.execute(q1a(num_epps=2))
        assert decision.route == "sb"
        assert decision.suboptimality <= 10.0 + 1e-9  # D=2 guarantee

    def test_inherently_robust_query_stays_native(self, session):
        """The toy query's plan diagram is benign: the advisor keeps the
        native optimizer at any radius — and that is the right call."""
        session.base_error_radius = 1e9
        decision = session.execute(make_toy_query())
        if decision.route == "native":
            assert decision.suboptimality <= 10.0 + 1e-9

    def test_decisions_accumulate(self, session):
        query = make_toy_query()
        session.execute(query)
        session.execute(query)
        assert len(session.decisions) == 2
        summary = session.summary()
        assert summary["queries"] == 2
        assert summary["worst_suboptimality"] >= summary[
            "mean_suboptimality"
        ]

    def test_empty_summary(self, session):
        assert session.summary() == {"queries": 0}


class TestFeedbackLoop:
    def test_robust_run_records_learned_selectivities(self, session):
        from repro import q1a

        session.base_error_radius = 1e9
        decision = session.execute(q1a(num_epps=2))
        assert decision.route == "sb"
        assert session.feedback  # something was learnt and recorded

    def test_feedback_sharpens_radius(self, session):
        query = make_toy_query()
        estimate = [1e-7, 1e-7]
        before = session.error_radius_for(query, estimate)
        assert before == session.base_error_radius
        session.record_feedback(query.epps[0].name, 1e-2)  # 1e5x miss
        after = session.error_radius_for(query, estimate)
        assert after > 1e4

    def test_feedback_floor(self, session):
        query = make_toy_query()
        session.record_feedback(query.epps[0].name, 1e-7)
        radius = session.error_radius_for(query, [1e-7, 1e-7])
        assert radius >= 2.0

    def test_bad_history_flips_route_to_robust(self, tmp_path):
        """The deployment story: a burned estimate reroutes the query."""
        from repro import q1a

        session = RobustSession(cache_dir=tmp_path, algorithm="sb",
                                error_radius=1.5, resolution=8)
        query = q1a(num_epps=2)
        first = session.execute(query)
        assert first.route == "native"  # small anticipated error
        # Record a catastrophic historical miss for one epp.
        session.record_feedback(query.epps[0].name, 0.5)
        second = session.execute(query)
        assert second.route == "sb"
        assert second.suboptimality <= 10.0 + 1e-9
