"""Tests for run-level telemetry (repro.obs.runtrace) and the
budget-waterfall viewer (repro.obs.waterfall)."""

import math

import pytest

from repro.core.discovery import NORMAL, SPILL
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtrace import (
    OUTCOME_BUDGET_KILL,
    OUTCOME_COMPLETED,
    OUTCOME_SPILL_LEARNED,
    OUTCOMES,
    classify_outcome,
    publish_run_metrics,
    run_records,
    traced_run,
)
from repro.obs.waterfall import (
    MAX_ROWS,
    OUTCOME_COLORS,
    waterfall_html,
    waterfall_svg,
    write_waterfall_html,
)


def synthetic_rows(n=3):
    """Hand-built waterfall rows for pure-render tests."""
    rows = []
    cumulative = 0.0
    outcomes = [OUTCOME_BUDGET_KILL, OUTCOME_SPILL_LEARNED,
                OUTCOME_COMPLETED]
    for i in range(n):
        budget = 100.0 * 2 ** i
        charged = budget if i % 3 == 0 else budget * 0.7
        start = cumulative
        cumulative += charged
        rows.append({
            "index": i, "contour": i // 2, "plan_id": i, "plan_key": f"p{i}",
            "mode": SPILL if i % 3 == 1 else NORMAL,
            "epp": "j:a-b" if i % 3 == 1 else "",
            "budget": budget, "charged": charged,
            "completed": i % 3 != 0, "outcome": outcomes[i % 3],
            "cost_start": start, "cost_end": cumulative,
            "learned_selectivity": 1e-4 if i % 3 == 1 else None,
            "fresh": True, "penalty": 0.0,
        })
    return rows


class TestClassifyOutcome:
    def test_paper_semantics(self):
        assert classify_outcome(NORMAL, True) == OUTCOME_COMPLETED
        assert classify_outcome(SPILL, True) == OUTCOME_SPILL_LEARNED
        assert classify_outcome(NORMAL, False) == OUTCOME_BUDGET_KILL
        assert classify_outcome(SPILL, False) == OUTCOME_BUDGET_KILL

    def test_every_outcome_has_a_color(self):
        assert set(OUTCOME_COLORS) == set(OUTCOMES)


class TestRunRecords:
    def test_cost_timeline_is_cumulative(self, toy_sb):
        result = toy_sb.run(150, trace=True)
        rows = run_records(result, toy_sb.ess.query)
        assert len(rows) == result.num_executions
        cumulative = 0.0
        for row in rows:
            assert row["cost_start"] == pytest.approx(cumulative)
            cumulative += row["charged"]
            assert row["cost_end"] == pytest.approx(cumulative)
        assert rows[-1]["cost_end"] == pytest.approx(result.total_cost)

    def test_outcomes_and_epp_labels(self, toy_sb):
        result = toy_sb.run(150, trace=True)
        rows = run_records(result, toy_sb.ess.query)
        assert all(row["outcome"] in OUTCOMES for row in rows)
        epp_names = {e.name for e in toy_sb.ess.query.epps}
        for row in rows:
            if row["mode"] == SPILL:
                assert row["epp"] in epp_names
        learned = [row["learned_selectivity"] for row in rows
                   if row["learned_selectivity"] is not None]
        for sel in learned:
            assert not math.isnan(sel)

    def test_untraced_result_yields_no_rows(self, toy_sb):
        result = toy_sb.run(150, trace=False)
        assert run_records(result) == []

    def test_discovery_result_waterfall_rows_method(self, toy_sb):
        result = toy_sb.run(150, trace=True)
        assert result.waterfall_rows(toy_sb.ess.query) == run_records(
            result, toy_sb.ess.query)


class TestPublishRunMetrics:
    def test_run_semantics_land_in_registry(self, toy_sb):
        registry = MetricsRegistry()
        result = toy_sb.run(150, trace=True)
        rows = run_records(result, toy_sb.ess.query)
        publish_run_metrics(result, rows, algorithm="sb", registry=registry)

        labels = {"algorithm": "sb"}
        assert registry.counter("discovery_runs", labels=labels) == 1
        assert registry.counter(
            "contours_crossed", labels=labels) == result.contours_visited
        assert registry.counter(
            "discovery_executions", labels=labels) == result.num_executions
        kills = sum(r["outcome"] == OUTCOME_BUDGET_KILL for r in rows)
        assert registry.counter("budget_kills", labels=labels) == kills
        spill_total = sum(
            registry.counter("spill_executions", labels={"epp": e.name})
            for e in toy_sb.ess.query.epps
        )
        assert spill_total == sum(r["mode"] == SPILL for r in rows)
        assert registry.gauge_value(
            "last_run_total_cost") == pytest.approx(result.total_cost)
        summary = registry.summary()
        assert summary["histograms"]["run_suboptimality"]["count"] == 1
        if kills:
            assert summary["histograms"]["budget_kill_charge"][
                "count"] == kills

    def test_traced_run_emits_run_and_marker_spans(self, toy_sb):
        registry = MetricsRegistry()
        tracer = trace.Tracer()
        previous = trace.install_tracer(tracer)
        try:
            result, rows = traced_run(toy_sb, 150, name="sb",
                                      registry=registry)
        finally:
            trace.install_tracer(previous)
        assert rows == run_records(result, toy_sb.ess.query)
        run_spans = [s for s in tracer.spans if s.name == "discovery.run"]
        assert len(run_spans) == 1
        assert run_spans[0].attrs["suboptimality"] == result.suboptimality
        markers = [s for s in tracer.spans
                   if s.name == "discovery.execution"]
        assert len(markers) == len(rows)
        assert all(m.parent_id == run_spans[0].span_id for m in markers)
        assert [m.attrs["outcome"] for m in markers] == [
            r["outcome"] for r in rows]


class TestWaterfallSvg:
    def test_rows_render_with_outcome_colors(self):
        rows = synthetic_rows(4)
        svg = waterfall_svg(rows, title="test waterfall")
        assert svg.startswith("<svg")
        assert "test waterfall" in svg
        for outcome in OUTCOMES:
            assert outcome in svg
            assert OUTCOME_COLORS[outcome] in svg
        assert "charged cost (log)" in svg
        assert "IC0 normal" in svg
        assert "<title>" in svg  # tooltips ride inside the bar groups

    def test_empty_rows_still_render(self):
        svg = waterfall_svg([])
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_overflow_rows_summarised(self):
        rows = synthetic_rows(MAX_ROWS + 25)
        svg = waterfall_svg(rows)
        assert "25 more executions" in svg

    def test_real_run_renders(self, toy_sb):
        result = toy_sb.run(150, trace=True)
        rows = result.waterfall_rows(toy_sb.ess.query)
        svg = waterfall_svg(rows, subtitle="toy run")
        assert svg.count("<title>") == len(rows)

    def test_unbudgeted_run_renders(self, toy_ess):
        from repro.core.native import NativeOptimizer

        result = NativeOptimizer(toy_ess).run(150, trace=True)
        rows = result.waterfall_rows(toy_ess.query)
        assert [row["budget"] for row in rows] == [None]  # strict JSON
        assert "unbudgeted" in waterfall_svg(rows)


class TestWaterfallHtml:
    def test_self_contained_document(self):
        rows = synthetic_rows(3)
        meta = {"query": "2D_Q42", "algorithm": "sb",
                "suboptimality": 5.1234}
        html = waterfall_html(rows, meta=meta, title="run 42")
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html
        assert "2D_Q42" in html and "sb" in html
        assert "sub-optimality 5.12" in html
        # One table row per execution, plus the header row.
        assert html.count("<tr>") == len(rows) + 1 + len(meta)
        assert "p0" in html and "j:a-b" in html

    def test_write_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "run.html"
        written = write_waterfall_html(str(path), synthetic_rows(2),
                                       meta={"query": "q"})
        assert written == str(path)
        text = path.read_text(encoding="utf-8")
        assert "</html>" in text
