"""Tests for the span tracer (repro.obs.trace) and its JSONL format.

The differential tests at the bottom are the load-bearing ones: they
prove that installing a tracer does not perturb a single discovery run
or a full sweep — same executions, same charges, bit-identical
sub-optimality arrays.
"""

import threading

import numpy as np
import pytest

from repro import settings
from repro.core.mso import evaluate_algorithm
from repro.obs import trace
from repro.obs.export import read_trace_jsonl, write_trace_jsonl


@pytest.fixture
def scoped_tracer():
    """Install a fresh tracer for one test, always restoring the
    previous global (usually None: tracing disabled)."""
    tracer = trace.Tracer()
    previous = trace.install_tracer(tracer)
    yield tracer
    trace.install_tracer(previous)


class TestSpanStructure:
    def test_nesting_builds_parent_links(self, scoped_tracer):
        with trace.span("outer") as outer:
            with trace.span("inner") as inner:
                assert inner.parent_id == outer.span_id
            with trace.span("sibling") as sibling:
                assert sibling.parent_id == outer.span_id
        assert outer.parent_id == ""
        names = [s.name for s in scoped_tracer.spans]
        # Completion order: children close before their parent.
        assert names == ["inner", "sibling", "outer"]

    def test_span_ids_unique_and_trace_id_shared(self, scoped_tracer):
        for _ in range(5):
            with trace.span("op"):
                pass
        ids = [s.span_id for s in scoped_tracer.spans]
        assert len(set(ids)) == len(ids)
        assert {s.trace_id for s in scoped_tracer.spans} == {
            scoped_tracer.trace_id
        }

    def test_attrs_and_set_attr(self, scoped_tracer):
        with trace.span("op", engine="batch", points=100) as s:
            s.set_attr("engine_used", "loop")
        record = scoped_tracer.spans[0]
        assert record.attrs == {
            "engine": "batch", "points": 100, "engine_used": "loop",
        }

    def test_timestamps_are_monotonic(self, scoped_tracer):
        with trace.span("outer"):
            with trace.span("inner"):
                pass
        inner, outer = scoped_tracer.spans
        assert inner.end_ns >= inner.start_ns
        assert outer.start_ns <= inner.start_ns
        assert outer.end_ns >= inner.end_ns
        assert outer.duration_ns >= inner.duration_ns

    def test_exception_marks_span_and_propagates(self, scoped_tracer):
        with pytest.raises(ValueError):
            with trace.span("doomed"):
                raise ValueError("boom")
        assert scoped_tracer.spans[0].attrs["error"] == "ValueError"

    def test_current_span(self, scoped_tracer):
        assert trace.current_span() is None
        with trace.span("op") as s:
            assert trace.current_span() is s
        assert trace.current_span() is None

    def test_threads_get_independent_stacks(self, scoped_tracer):
        seen = {}

        def worker():
            with trace.span("thread-op") as s:
                seen["parent"] = s.parent_id

        with trace.span("main-op"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        # The worker's span must not become a child of the main
        # thread's active span.
        assert seen["parent"] == ""

    def test_max_spans_bound_drops_not_grows(self):
        tracer = trace.Tracer(max_spans=3)
        previous = trace.install_tracer(tracer)
        try:
            for _ in range(5):
                with trace.span("op"):
                    pass
        finally:
            trace.install_tracer(previous)
        assert len(tracer.spans) == 3
        assert tracer.dropped == 2
        assert tracer.meta()["dropped"] == 2


class TestDisabledPath:
    def test_span_is_shared_noop_singleton(self):
        previous = trace.install_tracer(None)
        try:
            assert not trace.enabled()
            s = trace.span("anything", key="value")
            assert s is trace.NOOP_SPAN
            with s as inner:
                inner.set_attr("ignored", 1)  # must not raise
            assert trace.current_span() is None
        finally:
            trace.install_tracer(previous)

    def test_install_returns_previous(self):
        first = trace.Tracer()
        original = trace.install_tracer(first)
        try:
            second = trace.Tracer()
            assert trace.install_tracer(second) is first
            assert trace.active_tracer() is second
        finally:
            trace.install_tracer(original)

    def test_env_gate_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert not settings.get("REPRO_TRACE")
        for value in ("1", "true", "ON", "yes"):
            monkeypatch.setenv("REPRO_TRACE", value)
            assert settings.get("REPRO_TRACE")
        monkeypatch.setenv("REPRO_TRACE", "0")
        assert not settings.get("REPRO_TRACE")


class TestJsonlRoundTrip:
    def test_round_trip_preserves_spans(self, scoped_tracer, tmp_path):
        with trace.span("outer", engine="batch"):
            with trace.span("inner", points=7):
                pass
        path = tmp_path / "nested" / "dir" / "t.jsonl"
        write_trace_jsonl(scoped_tracer, str(path))
        meta, spans = read_trace_jsonl(str(path))
        assert meta["schema"] == trace.TRACE_SCHEMA
        assert meta["trace_id"] == scoped_tracer.trace_id
        assert meta["spans"] == 2 and meta["dropped"] == 0
        assert [s["name"] for s in spans] == ["inner", "outer"]
        by_name = {s["name"]: s for s in spans}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["inner"]["attrs"] == {"points": 7}
        for record in spans:
            assert record["kind"] == "span"
            assert record["end_ns"] >= record["start_ns"]

    def test_numpy_attrs_serialize(self, scoped_tracer, tmp_path):
        with trace.span("op", count=np.int64(3), sel=np.float64(0.5)):
            pass
        path = tmp_path / "np.jsonl"
        write_trace_jsonl(scoped_tracer, str(path))
        _, spans = read_trace_jsonl(str(path))
        assert spans[0]["attrs"] == {"count": 3, "sel": 0.5}


class TestTracingIsInert:
    """Tracing on vs off must not change any computed result."""

    def test_single_run_identical(self, toy_sb):
        baseline = toy_sb.run(150, trace=True)
        tracer = trace.Tracer()
        previous = trace.install_tracer(tracer)
        try:
            traced = toy_sb.run(150, trace=True)
        finally:
            trace.install_tracer(previous)
        assert traced.total_cost == baseline.total_cost
        assert traced.suboptimality == baseline.suboptimality
        assert traced.contours_visited == baseline.contours_visited
        assert len(traced.executions) == len(baseline.executions)
        for a, b in zip(traced.executions, baseline.executions):
            assert (a.contour, a.mode, a.plan_id, a.charged) == (
                b.contour, b.mode, b.plan_id, b.charged)

    @pytest.mark.parametrize("engine", ["loop", "batch"])
    def test_sweep_bit_identical(self, toy_sb, engine):
        baseline = evaluate_algorithm(toy_sb, engine=engine)
        tracer = trace.Tracer()
        previous = trace.install_tracer(tracer)
        try:
            traced = evaluate_algorithm(toy_sb, engine=engine)
        finally:
            trace.install_tracer(previous)
        assert np.array_equal(baseline.suboptimality, traced.suboptimality)
        assert baseline.mso == traced.mso
        assert baseline.worst_location == traced.worst_location
        # The traced sweep actually produced spans — the comparison
        # above exercised the enabled path, not a silent no-op.
        assert any(s.name == "sweep.evaluate" for s in tracer.spans)
