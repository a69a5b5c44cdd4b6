"""Tests for end-to-end request observability (PR 10).

Covers the cross-process trace plumbing (TraceContext wire format,
child tracers, span splicing, drop accounting), exposition determinism
(canonical label ordering, opt-in exemplars), the merged-trace
checker, and — against a real server — trace
spooling, tracing-on/off bit-identity, the live dashboard, concurrent
scrapes under load, and the structured audit log.
"""

import json
import os
import threading
import time
import warnings

import numpy as np
import pytest

from repro.bench import workloads
from repro.core.mso import evaluate_algorithm
from repro.core.spill_bound import SpillBound
from repro.obs import trace
from repro.obs.export import prometheus_text, read_trace_jsonl
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.serve.dashboard import (
    AUDIT_SCHEMA,
    AuditLog,
    DashboardState,
    render_dashboard_html,
)
from repro.serve.loadgen import (
    ServeClient,
    ServerThread,
    _await_trace_file,
    check_merged_trace,
    run_loadgen,
    scrape_counter,
    solo_result,
)
from repro.serve.server import ServeConfig


@pytest.fixture
def serve_env(tmp_path, monkeypatch):
    """Fresh archive cache + cold workload memo for one server test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serve-cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    workloads.clear_cache()
    yield
    workloads.clear_cache()


def start_server(**overrides):
    overrides.setdefault("profile", "smoke")
    overrides.setdefault("ess_mode", "eager")
    overrides.setdefault("workers", 2)
    thread = ServerThread(ServeConfig.from_env(**overrides))
    thread.start()
    return thread


# ----------------------------------------------------------------------
# TraceContext + cross-process plumbing
# ----------------------------------------------------------------------


class TestTraceContext:
    def test_wire_round_trip(self):
        ctx = trace.TraceContext("ab" * 8, parent_span_id="cd" * 4,
                                 anchor_unix_ns=123)
        wire = ctx.to_wire()
        assert wire == {"trace_id": "ab" * 8, "parent_span_id": "cd" * 4,
                        "anchor_unix_ns": 123}
        back = trace.TraceContext.from_wire(json.loads(json.dumps(wire)))
        assert back.trace_id == ctx.trace_id
        assert back.parent_span_id == ctx.parent_span_id
        assert back.anchor_unix_ns == 123

    def test_from_wire_none_and_passthrough(self):
        assert trace.TraceContext.from_wire(None) is None
        ctx = trace.TraceContext("ff" * 8)
        assert trace.TraceContext.from_wire(ctx) is ctx
        assert trace.child_tracer(None) is None

    def test_context_parents_on_active_span(self):
        tracer = trace.Tracer()
        with tracer.span("outer") as outer:
            ctx = tracer.context()
            assert ctx.trace_id == tracer.trace_id
            assert ctx.parent_span_id == outer.span_id
            assert ctx.anchor_unix_ns > 0
        # With no span open, the tracer's own parent is used.
        assert tracer.context().parent_span_id == tracer.parent_span_id

    def test_child_tracer_joins_and_splices_home(self):
        parent = trace.Tracer()
        with parent.span("parent.work"):
            wire = parent.context().to_wire()
        child = trace.child_tracer(wire)
        assert child.trace_id == parent.trace_id
        with child.span("child.work"):
            pass
        records = [s.to_record() for s in child.spans]
        assert parent.splice(records) == 1
        names = {s.name for s in parent.spans}
        assert names == {"parent.work", "child.work"}
        spliced = next(s for s in parent.spans if s.name == "child.work")
        assert spliced.parent_id == parent.spans[0].span_id
        assert spliced.time_unix_ns is not None

    def test_splice_rejects_foreign_trace_ids(self):
        parent = trace.Tracer()
        stranger = trace.Tracer()
        with stranger.span("noise"):
            pass
        records = [s.to_record() for s in stranger.spans]
        assert parent.splice(records) == 0
        assert parent.spans == []

    def test_span_id_prefixes_differ_across_tracers(self):
        # Two tracers joined to the same trace (as two worker processes
        # would be) must not mint colliding span ids.
        a = trace.Tracer(trace_id="aa" * 8)
        b = trace.Tracer(trace_id="aa" * 8)
        with a.span("x"):
            pass
        with b.span("x"):
            pass
        assert a.spans[0].span_id != b.spans[0].span_id


class TestDropAccounting:
    def test_drop_counter_and_one_time_warning(self, monkeypatch):
        monkeypatch.setattr(trace, "_WARNED_DROP", False)
        before = REGISTRY.counter("trace_spans_dropped")
        tracer = trace.Tracer(max_spans=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(5):
                with tracer.span("s"):
                    pass
        assert len(tracer.spans) == 2
        assert tracer.dropped == 3
        assert REGISTRY.counter("trace_spans_dropped") - before == 3
        rung = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(rung) == 1  # once per process, not once per drop
        assert "repro_trace_spans_dropped_total" in str(rung[0].message)
        assert tracer.meta()["dropped"] == 3

    def test_dropped_total_appears_in_exposition(self):
        registry = MetricsRegistry()
        registry.incr("trace_spans_dropped", 7)
        text = prometheus_text(registry)
        assert "repro_trace_spans_dropped_total 7" in text


class TestParallelSweepPropagation:
    @pytest.fixture
    def isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ess-cache"))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        workloads.clear_cache()
        yield
        workloads.clear_cache()

    def test_sweep_worker_spans_splice_into_parent(self, isolated_cache,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
        tracer = trace.Tracer()
        previous = trace.install_tracer(tracer)
        try:
            instance = workloads.load("2D_Q91", profile="smoke")
            parallel = evaluate_algorithm(
                SpillBound(instance.ess, instance.contours),
                workers=2, engine="parallel",
            )
        finally:
            trace.install_tracer(previous)
        serial = evaluate_algorithm(
            SpillBound(instance.ess, instance.contours), engine="loop")
        assert np.array_equal(serial.suboptimality, parallel.suboptimality)

        names = [s.name for s in tracer.spans]
        assert "sweep.parallel" in names
        workers = [s for s in tracer.spans if s.name == "sweep.worker"]
        assert workers, "no sweep.worker spans shipped home"
        parent_ids = {s.span_id for s in tracer.spans
                      if s.name == "sweep.parallel"}
        assert all(s.parent_id in parent_ids for s in workers)
        assert all(s.trace_id == tracer.trace_id for s in workers)
        assert all(s.time_unix_ns is not None for s in workers)
        worker_pids = {s.attrs.get("pid") for s in workers}
        assert os.getpid() not in worker_pids


# ----------------------------------------------------------------------
# Exposition determinism
# ----------------------------------------------------------------------


class TestCanonicalLabels:
    def test_brace_form_and_labels_kwarg_share_a_series(self):
        registry = MetricsRegistry()
        registry.incr("spills{epp=e1,tier=hot}")
        registry.incr("spills", labels={"tier": "hot", "epp": "e1"})
        assert registry.counter(
            "spills", labels={"epp": "e1", "tier": "hot"}) == 2

    def test_exposition_is_insertion_order_independent(self):
        first = MetricsRegistry()
        first.incr("requests", labels={"outcome": "ok", "tenant": "a"})
        first.incr("requests", labels={"tenant": "b", "outcome": "ok"})
        second = MetricsRegistry()
        second.incr("requests", labels={"tenant": "b", "outcome": "ok"})
        second.incr("requests", labels={"outcome": "ok", "tenant": "a"})
        assert prometheus_text(first) == prometheus_text(second)

    def test_merge_after_flattening_stays_byte_identical(self):
        # The worker->parent summary path flattens labels into brace
        # names; merging must land on the same canonical series.
        worker = MetricsRegistry()
        worker.incr("requests", labels={"tenant": "a", "outcome": "ok"})
        parent = MetricsRegistry()
        parent.incr("requests", labels={"outcome": "ok", "tenant": "a"})
        merged = MetricsRegistry()
        merged.merge(worker.summary())
        assert prometheus_text(merged) == prometheus_text(parent)

    def test_label_keys_render_sorted(self):
        registry = MetricsRegistry()
        registry.incr("requests", labels={"z": "1", "a": "2"})
        text = prometheus_text(registry)
        assert 'repro_requests_total{a="2",z="1"} 1' in text


class TestExemplars:
    def _registry(self):
        registry = MetricsRegistry()
        registry.observe("latency", 0.5, exemplar={"trace_id": "ab12"})
        return registry

    def test_default_exposition_has_no_exemplars(self):
        text = prometheus_text(self._registry())
        assert "ab12" not in text
        for line in text.splitlines():
            if not line.startswith("#"):
                assert " # " not in line

    def test_opt_in_exemplar_lands_on_inf_bucket_only(self):
        text = prometheus_text(self._registry(), exemplars=True)
        tagged = [line for line in text.splitlines() if " # " in line]
        assert len(tagged) == 1
        assert 'le="+Inf"' in tagged[0]
        assert 'trace_id="ab12"' in tagged[0]


# ----------------------------------------------------------------------
# Merged-trace checker
# ----------------------------------------------------------------------


def _span(trace_id, span_id, parent_id, name, t, pid):
    return {
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "time_unix_ns": t,
        "start_ns": t,
        "end_ns": t + 10,
        "attrs": {"pid": pid},
    }


class TestCheckMergedTrace:
    def _good(self):
        tid = "aa" * 8
        return {"kind": "meta", "trace_id": tid, "schema": "repro.trace.v1"}, [
            _span(tid, "s1", "", "serve.request", 100, 10),
            _span(tid, "s2", "s1", "serve.dispatch", 110, 10),
            _span(tid, "s3", "s2", "serve.worker.discover", 120, 20),
            _span(tid, "s4", "s3", "sweep.worker", 130, 30),
            _span(tid, "s5", "s3", "sweep.worker", 140, 31),
        ]

    def test_good_trace_passes_every_gate(self):
        meta, spans = self._good()
        verdict = check_merged_trace(meta, spans)
        assert verdict["ok"]
        assert verdict["single_trace_id"]
        assert verdict["multi_process"]
        assert verdict["has_request_root"]
        assert verdict["has_pool_worker_spans"]
        assert verdict["has_sweep_worker_spans"]
        assert verdict["wall_ordered"]
        assert verdict["spans"] == 5
        assert len(verdict["pids"]) == 4

    def test_foreign_trace_id_fails(self):
        meta, spans = self._good()
        spans[-1]["trace_id"] = "bb" * 8
        assert not check_merged_trace(meta, spans)["single_trace_id"]
        assert not check_merged_trace(meta, spans)["ok"]

    def test_single_process_fails_multi_process_gate(self):
        meta, spans = self._good()
        for span in spans:
            span["attrs"]["pid"] = 10
        verdict = check_merged_trace(meta, spans)
        assert not verdict["multi_process"]
        assert not verdict["ok"]

    def test_missing_request_root_fails(self):
        meta, spans = self._good()
        spans[0]["name"] = "other.root"
        assert not check_merged_trace(meta, spans)["has_request_root"]


# ----------------------------------------------------------------------
# Dashboard + audit log units
# ----------------------------------------------------------------------


class TestDashboardState:
    def test_ring_is_bounded(self):
        state = DashboardState(capacity=3)
        for i in range(5):
            state.record(outcome="ok", total_s=0.01, seq=i)
        events = state.snapshot()
        assert len(events) == 3
        assert [e["seq"] for e in events] == [2, 3, 4]
        assert all("ts" in e for e in events)

    def test_render_empty_state(self):
        # No events yet: still a complete page (charts appear once the
        # ring has data).
        html = render_dashboard_html(DashboardState(), MetricsRegistry(),
                                     {"status": "ok"})
        assert html.startswith("<!DOCTYPE html>") and "</html>" in html

    def test_render_with_events(self):
        state = DashboardState()
        registry = MetricsRegistry()
        now = time.time()
        for i in range(20):
            state.record(outcome="ok" if i % 3 else "rejected",
                         total_s=0.02 + 0.001 * i, ts=now - i,
                         build_s=0.001, queue_s=0.002, run_s=0.01,
                         source="memo" if i % 2 else "built",
                         violations=0, inflight=i % 4)
        html = render_dashboard_html(state, registry,
                                     {"status": "ok", "inflight": 2},
                                     now=now)
        assert "<svg" in html
        assert "p99" in html


class TestAuditLog:
    def _read(self, path):
        with open(path, encoding="utf-8") as handle:
            return [json.loads(line) for line in handle]

    def test_slow_requests_always_recorded(self, tmp_path):
        log = AuditLog(tmp_path / "audit.jsonl", threshold_s=0.05)
        assert not log.maybe_record({"total_s": 0.01, "query": "q"})
        assert log.maybe_record({"total_s": 0.2, "query": "q"})
        records = self._read(log.path)
        assert len(records) == 1
        assert records[0]["schema"] == AUDIT_SCHEMA
        assert records[0]["slow"] is True
        assert "ts" in records[0]

    def test_every_nth_sampling(self, tmp_path):
        log = AuditLog(tmp_path / "audit.jsonl", threshold_s=10.0, every=3)
        written = [log.maybe_record({"total_s": 0.0, "seq": i})
                   for i in range(9)]
        assert sum(written) == 3
        records = self._read(log.path)
        assert all(r["slow"] is False for r in records)

    def test_from_env(self, tmp_path, monkeypatch):
        """The server's audit log is configured by ``ServeConfig``."""
        from repro.serve.server import DiscoveryServer

        monkeypatch.delenv("REPRO_SERVE_AUDIT", raising=False)
        assert DiscoveryServer(ServeConfig.from_env()).audit is None
        monkeypatch.setenv("REPRO_SERVE_AUDIT",
                           str(tmp_path / "a.jsonl"))
        monkeypatch.setenv("REPRO_SERVE_AUDIT_THRESHOLD_S", "0.25")
        monkeypatch.setenv("REPRO_SERVE_AUDIT_SAMPLE", "5")
        log = DiscoveryServer(ServeConfig.from_env()).audit
        assert log.path == str(tmp_path / "a.jsonl")
        assert log.threshold_s == 0.25
        assert log.every == 5
        config = ServeConfig.from_env(audit_threshold_s=2.0, audit_every=0)
        assert (config.audit_threshold_s, config.audit_every) == (2.0, 0)


# ----------------------------------------------------------------------
# Server-backed: spooled traces, bit-identity, dashboard, audit
# ----------------------------------------------------------------------


class TestServeTracing:
    def test_traced_request_spools_a_merged_tree(self, serve_env, tmp_path):
        trace_dir = str(tmp_path / "traces")
        server = start_server(trace_dir=trace_dir)
        try:
            client = ServeClient(*server.address)
            try:
                before = client.metrics_text()
                status, traced = client.discover(
                    {"query": "2D_Q91", "kind": "evaluate", "trace": True})
                assert status == 200 and traced["outcome"] == "ok"
                assert traced["trace_id"]
                status, untraced = client.discover(
                    {"query": "2D_Q91", "kind": "evaluate"})
                assert status == 200
                assert "trace_id" not in untraced
                after = client.metrics_text()
            finally:
                client.close()
            # A traced evaluate stays inside the span budget: nothing
            # dropped, on the server's counter or in the spooled file.
            dropped = "repro_trace_spans_dropped_total"
            assert (scrape_counter(after, dropped)
                    == scrape_counter(before, dropped))

            path = _await_trace_file(trace_dir, traced["trace_id"])
            meta, spans = read_trace_jsonl(path)
            assert meta["trace_id"] == traced["trace_id"]
            assert meta["dropped"] == 0
            names = [s["name"] for s in spans]
            assert "serve.request" in names
            assert any(n.startswith("serve.worker.") for n in names)
            pids = {s.get("attrs", {}).get("pid") for s in spans
                    if s.get("attrs", {}).get("pid") is not None}
            assert len(pids) >= 2  # front-end + pool worker
            assert {s["trace_id"] for s in spans} == {traced["trace_id"]}

            # Differential: tracing must not perturb results.
            assert (json.dumps(traced["result"], sort_keys=True)
                    == json.dumps(untraced["result"], sort_keys=True))
        finally:
            server.stop()

    def test_traced_run_matches_solo_bit_identically(self, serve_env):
        server = start_server()
        try:
            client = ServeClient(*server.address)
            try:
                status, traced = client.discover(
                    {"query": "2D_Q91", "trace": True})
                assert status == 200
                status, untraced = client.discover({"query": "2D_Q91"})
                assert status == 200
            finally:
                client.close()
        finally:
            server.stop()
        solo = solo_result("2D_Q91", profile="smoke")
        canon = json.dumps(solo, sort_keys=True)
        assert json.dumps(traced["result"], sort_keys=True) == canon
        assert json.dumps(untraced["result"], sort_keys=True) == canon

    def test_loadgen_trace_every_marks_and_counts(self, serve_env,
                                                  tmp_path):
        trace_dir = str(tmp_path / "traces")
        server = start_server(trace_dir=trace_dir)
        try:
            summary = run_loadgen(
                *server.address, ["2D_Q91"], total=6,
                concurrency=3, trace_every=2,
            )
            assert summary["ok"] == 6
            assert summary["traced"] == 3
            traced_ids = {r["trace_id"] for r in summary["records"]
                          if r.get("trace_id")}
            assert len(traced_ids) == 3
        finally:
            server.stop()


class TestServeDashboard:
    def test_dashboard_serves_html_and_concurrent_scrapes(self, serve_env):
        server = start_server()
        try:
            # Warm once so scrapes race against real inflight work.
            client = ServeClient(*server.address)
            try:
                status, _ = client.discover({"query": "2D_Q91"})
                assert status == 200
            finally:
                client.close()

            errors = []

            def hammer_requests():
                client = ServeClient(*server.address)
                try:
                    for _ in range(3):
                        status, obj = client.discover(
                            {"query": "2D_Q91", "sleep_s": 0.05})
                        if status != 200:
                            errors.append(("discover", status, obj))
                finally:
                    client.close()

            def hammer_scrapes():
                client = ServeClient(*server.address)
                try:
                    for _ in range(5):
                        text = client.metrics_text()
                        if "repro_serve_requests_total" not in text:
                            errors.append(("metrics", text[:80]))
                        status, body = client.request("GET", "/dashboard")
                        html = body.decode("utf-8")
                        if (status != 200 or "<svg" not in html
                                or "</html>" not in html):
                            errors.append(("dashboard", html[:80]))
                finally:
                    client.close()

            threads = ([threading.Thread(target=hammer_requests)
                        for _ in range(3)]
                       + [threading.Thread(target=hammer_scrapes)
                          for _ in range(3)])
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
        finally:
            server.stop()


class TestServeAudit:
    def test_audit_log_captures_slow_and_sampled(self, serve_env, tmp_path):
        audit = tmp_path / "audit.jsonl"
        server = start_server(audit_path=str(audit),
                              audit_threshold_s=0.2, audit_every=2)
        try:
            client = ServeClient(*server.address)
            try:
                for index in range(4):
                    sleep = 0.3 if index == 3 else 0.0
                    status, _ = client.discover(
                        {"query": "2D_Q91", "sleep_s": sleep})
                    assert status == 200
            finally:
                client.close()
        finally:
            server.stop()
        with open(audit, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        assert records, "audit log stayed empty"
        assert all(r["schema"] == AUDIT_SCHEMA for r in records)
        slow = [r for r in records if r["slow"]]
        assert len(slow) == 1
        assert slow[0]["total_s"] >= 0.2
        assert slow[0]["query"] == "2D_Q91"
        assert any(not r["slow"] for r in records)  # sampled path
