"""Tests for the concurrent discovery service (repro.serve).

Server-backed tests run a real :class:`DiscoveryServer` (asyncio
front-end + process-pool back-end) on a background thread against a
throw-away archive-cache directory, and talk to it over real sockets
with the load-generator client — the full wire path, not a mock.
"""

import asyncio
import json
import threading
import time

import pytest

from tests.conftest import fuzz_seeds

from repro.bench import workloads
from repro.core.mso import evaluate_algorithm
from repro.core.spill_bound import SpillBound
from repro.obs.metrics import REGISTRY
from repro.serve import protocol
from repro.serve.loadgen import (
    ServeClient,
    ServerThread,
    percentile,
    run_loadgen,
    scrape_counter,
    solo_result,
)
from repro.serve.server import ServeConfig
from repro.serve.surfaces import SurfaceTier


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


def concurrent_discover(host, port, payloads, connections=None):
    """Send every payload; returns (status, obj) per index.

    One connection per payload by default, so all fire at once; given
    ``connections``, that many keep-alive clients each work through
    their own interleaved slice.
    """
    connections = connections or len(payloads)
    results = [None] * len(payloads)

    def drive(first):
        client = ServeClient(host, port)
        try:
            for index in range(first, len(payloads), connections):
                results[index] = client.discover(payloads[index])
        finally:
            client.close()

    threads = [threading.Thread(target=drive, args=(i,))
               for i in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120.0)
    assert not any(thread.is_alive() for thread in threads)
    return results


class TestProtocol:
    def test_minimal_request_defaults(self):
        request = protocol.parse_discover({"query": "2D_Q91"})
        assert request.algorithm == "sb"
        assert request.kind == "run"
        assert request.tenant == "default"
        assert request.qa is None

    @pytest.mark.parametrize("payload", [
        "not a dict",
        {},
        {"query": ""},
        {"query": "2D_Q91", "algorithm": "nope"},
        {"query": "2D_Q91", "kind": "nope"},
        {"query": "2D_Q91", "kind": "evaluate", "algorithm": "native"},
        {"query": "2D_Q91", "engine": "vector"},
        {"query": "2D_Q91", "ess_mode": "sometimes"},
        {"query": "2D_Q91", "trace": "yes"},
        {"query": "2D_Q91", "qa": []},
        {"query": "2D_Q91", "qa": ["x"]},
        {"query": "2D_Q91", "qa": [float("nan")]},
        {"query": "2D_Q91", "budget_s": -1},
        {"query": "2D_Q91", "resolution": True},
        {"query": "2D_Q91", "resolution": 1},
        {"query": "2D_Q91", "tenant": ""},
        {"query": "2D_Q91", "tenant": "x" * 65},
        {"query": "2D_Q91", "sleep_s": protocol.MAX_SLEEP_S + 1},
        {"query": "2D_Q91", "conformance": "yes"},
    ])
    def test_invalid_requests_raise(self, payload):
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_discover(payload)

    def test_parallel_engine_accepted(self):
        request = protocol.parse_discover(
            {"query": "2D_Q91", "kind": "evaluate", "engine": "parallel"})
        assert request.engine == "parallel"

    def test_qa_coerced_to_floats(self):
        request = protocol.parse_discover(
            {"query": "2D_Q91", "qa": [1, "0.5"]}
        )
        assert request.qa == (1.0, 0.5)

    def test_http_message_roundtrip(self):
        async def roundtrip():
            reader = asyncio.StreamReader()
            reader.feed_data(protocol.http_request_payload(
                "POST", "/v1/discover", {"query": "2D_Q91"}
            ))
            reader.feed_eof()
            return await protocol.read_http_message(reader)

        start_line, headers, body = asyncio.run(roundtrip())
        assert start_line.startswith("POST /v1/discover")
        assert headers["content-type"] == "application/json"
        assert json.loads(body) == {"query": "2D_Q91"}

    def test_oversized_body_rejected(self):
        async def read_big():
            reader = asyncio.StreamReader()
            reader.feed_data(
                b"POST / HTTP/1.1\r\ncontent-length: 99\r\n\r\n"
            )
            return await protocol.read_http_message(reader, max_body=10)

        with pytest.raises(protocol.ProtocolError):
            asyncio.run(read_big())

    def test_parse_status(self):
        assert protocol.parse_status("HTTP/1.1 429 Too Many Requests") == 429
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_status("garbage")

    def test_oversized_request_line_rejected(self):
        async def read_long_line():
            reader = asyncio.StreamReader(limit=64)
            reader.feed_data(b"GET /" + b"x" * 1024 + b" HTTP/1.1\r\n\r\n")
            reader.feed_eof()
            return await protocol.read_http_message(reader)

        # A 400-able ProtocolError, not a raw ValueError off readline().
        with pytest.raises(protocol.ProtocolError):
            asyncio.run(read_long_line())

    def test_oversized_header_line_rejected(self):
        async def read_long_header():
            reader = asyncio.StreamReader(limit=64)
            reader.feed_data(b"GET / HTTP/1.1\r\nx-pad: "
                             + b"y" * 1024 + b"\r\n\r\n")
            reader.feed_eof()
            return await protocol.read_http_message(reader)

        with pytest.raises(protocol.ProtocolError):
            asyncio.run(read_long_header())


class TestSurfaceTier:
    """Event-loop-level single-flight semantics with a stub builder."""

    def test_concurrent_acquires_build_once(self):
        async def scenario():
            tier = SurfaceTier(limit_bytes=1 << 20)
            builds = []

            async def builder():
                builds.append(1)
                await asyncio.sleep(0.02)
                return 100

            sources = await asyncio.gather(*[
                tier.acquire("fp", builder) for _ in range(8)
            ])
            return builds, sources, tier

        builds, sources, tier = asyncio.run(scenario())
        assert len(builds) == 1
        assert sources.count("built") == 1
        assert sources.count("coalesced") == 7
        assert tier.resident_bytes == 100

    def test_failed_build_forgotten_then_retried(self):
        async def scenario():
            tier = SurfaceTier(limit_bytes=1 << 20)
            attempts = []

            async def failing():
                attempts.append(1)
                raise RuntimeError("boom")

            async def working():
                return 0

            with pytest.raises(RuntimeError):
                await tier.acquire("fp", failing)
            return attempts, await tier.acquire("fp", working)

        attempts, source = asyncio.run(scenario())
        assert len(attempts) == 1
        assert source == "built"

    @staticmethod
    def _evictions():
        return REGISTRY.counter("serve_surface_evictions")

    def test_lru_eviction_unlinks_by_bytes(self):
        before = self._evictions()

        async def scenario():
            tier = SurfaceTier(limit_bytes=250)

            async def builder():
                return 100

            await tier.acquire("a", builder)
            await tier.acquire("b", builder)
            # Touch "a" so "b" is the LRU victim when "c" overflows.
            assert await tier.acquire("a", builder) == "hit"
            await tier.acquire("c", builder)
            return tier, {fp: tier.lookup(fp) for fp in "abc"}

        tier, resident = asyncio.run(scenario())
        assert resident == {"a": True, "b": False, "c": True}
        assert tier.resident_bytes == 200
        assert self._evictions() == before + 1

    def test_oversized_entry_never_self_evicts(self):
        before = self._evictions()

        async def scenario():
            tier = SurfaceTier(limit_bytes=50)

            async def builder():
                return 1000

            source = await tier.acquire("big", builder)
            return tier, source

        tier, source = asyncio.run(scenario())
        assert source == "built" and tier.lookup("big")
        assert tier.resident_bytes == 1000
        assert self._evictions() == before

    def test_close_during_inflight_build_unlinks(self):
        before = self._evictions()

        async def scenario():
            tier = SurfaceTier(limit_bytes=1 << 20)
            release = asyncio.Event()

            async def builder():
                await release.wait()
                return 100

            acquire = asyncio.ensure_future(tier.acquire("fp", builder))
            await asyncio.sleep(0.01)  # the build task is in flight
            tier.close()
            release.set()
            return tier, await acquire

        tier, source = asyncio.run(scenario())
        # The closed tier forgot the entry: the moot build is neither
        # resident nor counted as an eviction.
        assert source == "built"
        assert tier.resident_bytes == 0
        assert tier.stats()["entries"] == 0
        assert self._evictions() == before


class TestSingleFlight:
    def test_concurrent_identical_requests_build_once(self, serve_env):
        thread = start_server()
        try:
            host, port = thread.address
            client = ServeClient(host, port)
            before = client.metrics_text()
            results = concurrent_discover(
                host, port,
                [{"query": "2D_Q91", "sleep_s": 0.05} for _ in range(8)],
            )
            after = client.metrics_text()

            assert all(status == 200 and obj["outcome"] == "ok"
                       for status, obj in results)
            bodies = {json.dumps(obj["result"], sort_keys=True)
                      for _, obj in results}
            assert len(bodies) == 1  # bit-identical across the flight

            label = {"phase": "ess_build"}
            builds = (scrape_counter(after, "repro_phase_runs_total", label)
                      - scrape_counter(before, "repro_phase_runs_total",
                                       label))
            assert builds == 1
            sources = [obj["surface"]["source"] for _, obj in results]
            assert sources.count("built") == 1
            assert all(s in ("built", "coalesced", "hit") for s in sources)
            client.close()
        finally:
            thread.stop()

    def test_served_result_bit_identical_to_solo(self, serve_env):
        thread = start_server()
        try:
            host, port = thread.address
            client = ServeClient(host, port)
            status, served = client.discover({"query": "3D_Q91"})
            assert status == 200 and served["outcome"] == "ok"
            solo = solo_result("3D_Q91", profile="smoke")
            assert (json.dumps(served["result"], sort_keys=True)
                    == json.dumps(solo, sort_keys=True))
            client.close()
        finally:
            thread.stop()

    def test_run_replies_are_strict_json(self, serve_env):
        # A run reply carries every execution record; an unlearnt
        # selectivity and native's unbudgeted execution must be null,
        # not a bare NaN or Infinity no strict parser accepts.
        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")

        thread = start_server()
        try:
            host, port = thread.address
            client = ServeClient(host, port)
            for algorithm in ("sb", "pb", "native"):
                status, body = client.request(
                    "POST", "/v1/discover",
                    {"query": "2D_Q91", "algorithm": algorithm})
                assert status == 200
                reply = json.loads(body, parse_constant=reject)
                records = reply["result"]["executions"]
                assert any(r["learned_selectivity"] is None
                           for r in records)
                if algorithm == "native":
                    assert [r["budget"] for r in records] == [None]
            client.close()
        finally:
            thread.stop()

    def test_explicit_qa_round_trips(self, serve_env):
        thread = start_server()
        try:
            host, port = thread.address
            client = ServeClient(host, port)
            instance = workloads.load("2D_Q91", profile="smoke")
            qa = [float(v) for v in instance.query.true_location()]
            status, served = client.discover({"query": "2D_Q91", "qa": qa})
            assert status == 200 and served["outcome"] == "ok"
            solo = solo_result("2D_Q91", profile="smoke", qa=qa)
            assert (json.dumps(served["result"], sort_keys=True)
                    == json.dumps(solo, sort_keys=True))
            client.close()
        finally:
            thread.stop()


class TestPrivateArchive:
    """With no usable archive cache the server still builds each surface
    once: its workers share a private archive directory it removes at
    shutdown."""

    @pytest.mark.parametrize("unusable", ["cache_off", "dir_is_a_file"])
    def test_surface_built_once_across_workers(
            self, serve_env, tmp_path, monkeypatch, unusable):
        import os

        if unusable == "cache_off":
            monkeypatch.setenv("REPRO_CACHE", "0")
        else:
            # A regular file defeats makedirs, even for root.
            blocker = tmp_path / "not-a-dir"
            blocker.write_text("")
            monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker))
        thread = start_server(workers=2)
        try:
            private = thread.server._archive_dir
            assert private is not None and os.path.isdir(private)
            host, port = thread.address
            client = ServeClient(host, port)
            before = client.metrics_text()
            replies = concurrent_discover(
                host, port,
                [{"query": "2D_Q91", "sleep_s": 0.2} for _ in range(4)])
            replies += [client.discover({"query": "2D_Q91"})
                        for _ in range(4)]
            after = client.metrics_text()
            client.close()
            assert all(status == 200 and obj["outcome"] == "ok"
                       for status, obj in replies)
            assert len({obj["worker_pid"] for _, obj in replies}) == 2
            label = {"phase": "ess_build"}
            assert (scrape_counter(after, "repro_phase_runs_total", label)
                    - scrape_counter(before, "repro_phase_runs_total",
                                     label)) == 1
            # The tier budgets the surface's 12 array bytes per point.
            num_points = replies[0][1]["surface"]["num_points"]
            assert thread.server.tier.resident_bytes == 12 * num_points
        finally:
            thread.stop()
        assert not os.path.exists(private)
        solo = json.dumps(solo_result("2D_Q91", profile="smoke"),
                          sort_keys=True)
        assert all(json.dumps(obj["result"], sort_keys=True) == solo
                   for _, obj in replies)


    def test_failed_start_leaves_no_private_directory(
            self, serve_env, tmp_path, monkeypatch):
        import socket
        import tempfile

        from repro.errors import ReproError

        monkeypatch.setenv("REPRO_CACHE", "0")
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            thread = ServerThread(ServeConfig.from_env(
                profile="smoke", workers=1, port=taken.getsockname()[1]))
            try:
                with pytest.raises(ReproError, match="failed to start"):
                    thread.start()
            finally:
                thread.stop()
        assert not any(p.name.startswith("repro-serve-")
                       for p in tmp_path.iterdir())


class TestAdmission:
    def test_tenant_quota_rejects_429(self, serve_env):
        thread = start_server(workers=1, queue_limit=16, tenant_quota=1)
        try:
            host, port = thread.address
            warm = ServeClient(host, port)
            warm.discover({"query": "2D_Q91"})  # surface built, pool warm
            results = concurrent_discover(host, port, [
                {"query": "2D_Q91", "sleep_s": 1.0, "tenant": "crowd"}
                for _ in range(4)
            ])
            outcomes = [obj["outcome"] for _, obj in results]
            statuses = [status for status, _ in results]
            assert "rejected" in outcomes
            assert 429 in statuses
            rejected = [obj for _, obj in results
                        if obj["outcome"] == "rejected"]
            assert all(obj["reason"] == "tenant_quota" for obj in rejected)
            # Other tenants are unaffected while "crowd" is throttled.
            status, obj = warm.discover(
                {"query": "2D_Q91", "tenant": "other"}
            )
            assert status == 200 and obj["outcome"] == "ok"
            warm.close()
        finally:
            thread.stop()

    def test_queue_full_rejects_429(self, serve_env):
        thread = start_server(workers=1, queue_limit=1, tenant_quota=16)
        try:
            host, port = thread.address
            warm = ServeClient(host, port)
            warm.discover({"query": "2D_Q91"})
            warm.close()
            results = concurrent_discover(host, port, [
                {"query": "2D_Q91", "sleep_s": 1.0, "tenant": f"t{i}"}
                for i in range(6)
            ])
            rejected = [obj for status, obj in results if status == 429]
            assert rejected
            assert all(obj["reason"] == "queue_full" for obj in rejected)
            completed = [obj for status, obj in results if status == 200]
            assert completed  # admitted requests still finish
        finally:
            thread.stop()


class TestCancellation:
    def test_budget_kill_is_cooperative_and_prompt(self, serve_env):
        thread = start_server(workers=1)
        try:
            host, port = thread.address
            client = ServeClient(host, port)
            client.discover({"query": "2D_Q91"})  # warm the surface
            start = time.perf_counter()
            status, obj = client.discover(
                {"query": "2D_Q91", "sleep_s": 8.0, "budget_s": 0.3}
            )
            elapsed = time.perf_counter() - start
            assert status == 200
            assert obj["outcome"] == "killed"
            assert "result" not in obj
            assert elapsed < 4.0  # answered at kill time, not sleep time
            text = client.metrics_text()
            assert scrape_counter(text, "repro_serve_killed_total") >= 1
            client.close()
        finally:
            thread.stop()

    def test_slot_release_deferred_until_detached_task_ends(self):
        """A killed request's slot stays pinned (flag set) while its
        dispatched pool task may still poll it."""
        import multiprocessing

        from repro.serve.server import DiscoveryServer

        async def scenario():
            server = DiscoveryServer(ServeConfig.from_env(
                workers=1, queue_limit=1, tenant_quota=1))
            server._cancel_slots = multiprocessing.Array("b", 4, lock=False)
            server._free_slots = list(range(4))
            state = server._alloc_state()
            pool_future = asyncio.get_running_loop().create_future()
            server._kill(state)
            done, _ = await server._race_cancel(
                pool_future, state, holds_slot=True
            )
            assert not done
            server._release_state(state)
            # The worker still polls: flag stays set, slot stays out.
            assert server._cancel_slots[state.slot] == 1
            assert state.slot not in server._free_slots
            pool_future.set_result({"outcome": "killed"})
            await asyncio.sleep(0.01)  # run the done-callback
            assert server._cancel_slots[state.slot] == 0
            assert state.slot in server._free_slots

        asyncio.run(scenario())

    def test_kill_frees_the_worker_promptly(self, serve_env):
        thread = start_server(workers=1)
        try:
            host, port = thread.address
            client = ServeClient(host, port)
            client.discover({"query": "2D_Q91"})  # warm surface + pool
            status, obj = client.discover(
                {"query": "2D_Q91", "sleep_s": 8.0, "budget_s": 0.2}
            )
            assert status == 200 and obj["outcome"] == "killed"
            # The detached task must see the still-set kill flag at its
            # next ~10ms checkpoint and die — not run its full 8s sleep
            # holding the only worker while the next request queues.
            start = time.perf_counter()
            status, obj = client.discover({"query": "2D_Q91"})
            elapsed = time.perf_counter() - start
            assert status == 200 and obj["outcome"] == "ok"
            assert elapsed < 4.0
            client.close()
        finally:
            thread.stop()


class TestDrain:
    def test_draining_rejects_with_503(self, serve_env):
        thread = start_server(workers=1)
        try:
            host, port = thread.address
            client = ServeClient(host, port)
            thread.server._draining = True
            status, obj = client.discover({"query": "2D_Q91"})
            assert status == 503
            assert obj["outcome"] == "rejected"
            assert obj["reason"] == "draining"
            thread.server._draining = False
            client.close()
        finally:
            thread.stop()

    def test_graceful_drain_finishes_inflight(self, serve_env):
        thread = start_server(workers=1)
        host, port = thread.address
        warm = ServeClient(host, port)
        warm.discover({"query": "2D_Q91"})
        warm.close()
        outcome = {}

        def slow():
            client = ServeClient(host, port)
            try:
                outcome["slow"] = client.discover(
                    {"query": "2D_Q91", "sleep_s": 1.0}
                )
            finally:
                client.close()

        runner = threading.Thread(target=slow)
        runner.start()
        time.sleep(0.4)  # admitted and inside its service time
        thread.submit(thread.server.stop(drain=True), timeout=60)
        runner.join(30)
        status, obj = outcome["slow"]
        assert status == 200 and obj["outcome"] == "ok"
        refused = ServeClient(host, port, timeout=5)
        with pytest.raises(Exception):
            refused.discover({"query": "2D_Q91"})
        refused.close()
        thread.stop()


class TestEndpoints:
    def test_metrics_and_health(self, serve_env):
        thread = start_server()
        try:
            host, port = thread.address
            client = ServeClient(host, port)
            client.discover({"query": "2D_Q91"})
            text = client.metrics_text()
            assert scrape_counter(
                text, "repro_serve_requests_total", {"outcome": "ok"}
            ) >= 1
            assert "repro_serve_latency_seconds_bucket" in text
            assert "repro_serve_cache_resident_bytes" in text
            health = client.request_json("GET", "/healthz")[1]
            assert health["status"] == "ok"
            assert health["workers"] == 2
            assert health["surfaces"]["entries"] == 1
            client.close()
        finally:
            thread.stop()

    def test_error_paths(self, serve_env):
        thread = start_server()
        try:
            host, port = thread.address
            client = ServeClient(host, port)
            status, _ = client.request("POST", "/v1/discover",
                                       obj=None)  # empty body
            assert status == 400
            status, obj = client.request_json("GET", "/nowhere")
            assert status == 404
            status, obj = client.discover({"query": "no_such_workload"})
            assert status == 400
            assert obj["outcome"] == "invalid"
            status, obj = client.discover(
                {"query": "2D_Q91", "algorithm": "nope"}
            )
            assert status == 400 and obj["outcome"] == "invalid"
            # The connection survives every rejected request above.
            status, obj = client.discover({"query": "2D_Q91"})
            assert status == 200 and obj["outcome"] == "ok"
            client.close()
        finally:
            thread.stop()

    def test_evaluate_kind_matches_local_sweep(self, serve_env):
        thread = start_server()
        try:
            host, port = thread.address
            client = ServeClient(host, port)
            status, served = client.discover(
                {"query": "2D_Q91", "kind": "evaluate", "engine": "batch"}
            )
            assert status == 200 and served["outcome"] == "ok"
            workloads.clear_cache()
            instance = workloads.load("2D_Q91", profile="smoke",
                                      ess_mode="eager")
            local = evaluate_algorithm(
                SpillBound(instance.ess, instance.contours), engine="batch"
            )
            assert served["result"]["mso"] == float(local.mso)
            assert served["result"]["aso"] == float(local.aso)
            assert served["result"]["num_points"] == local.suboptimality.size
            client.close()
        finally:
            thread.stop()

    def test_conformance_reported_clean(self, serve_env):
        thread = start_server()
        try:
            host, port = thread.address
            client = ServeClient(host, port)
            status, obj = client.discover(
                {"query": "2D_Q91", "conformance": True}
            )
            assert status == 200 and obj["outcome"] == "ok"
            assert obj["conformance"]["num_violations"] == 0
            assert obj["conformance"]["checks"].get("runs") == 1
            client.close()
        finally:
            thread.stop()


class TestLoadgen:
    def test_percentile_interpolates(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([3.0], 0.99) == 3.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
        assert percentile([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0

    def test_scrape_counter_label_filtering(self):
        text = (
            'repro_x_total{a="1",b="2"} 3\n'
            'repro_x_total{a="9"} 4\n'
            "repro_y_total 7\n"
            "# HELP repro_x_total whatever\n"
        )
        assert scrape_counter(text, "repro_x_total") == 7.0
        assert scrape_counter(text, "repro_x_total", {"a": "1"}) == 3.0
        assert scrape_counter(text, "repro_y_total") == 7.0
        assert scrape_counter(text, "repro_missing_total") == 0.0

    def test_closed_loop_summary(self, serve_env):
        thread = start_server()
        try:
            host, port = thread.address
            summary = run_loadgen(
                host, port, queries=["2D_Q91"], total=6, concurrency=3,
                tenants=["a", "b"],
            )
            assert summary["requests"] == 6
            assert summary["outcomes"] == {"ok": 6}
            assert summary["rps"] > 0
            latency = summary["latency_s"]
            assert 0 < latency["p50"] <= latency["p99"] <= latency["max"]
            tenants = {r["tenant"] for r in summary["records"]}
            assert tenants == {"a", "b"}
        finally:
            thread.stop()


class TestServeCli:
    def test_parser_accepts_serve_and_loadgen(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--port", "0", "--workers", "2", "--quota", "4"]
        )
        assert args.command == "serve" and args.quota == 4
        args = parser.parse_args(
            ["loadgen", "--queries", "2D_Q91", "--requests", "8",
             "--concurrency", "2", "--json", "out.json"]
        )
        assert args.command == "loadgen"
        assert args.requests == 8

    def test_negative_cache_budget_rejected_naming_its_source(
            self, monkeypatch, capsys):
        """The tier budget has a floor like every other numeric knob:
        the library and the CLI both refuse it before anything boots."""
        from repro.cli import main
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="from --cache-mb"):
            ServeConfig.from_env(cache_mb=-3)
        monkeypatch.setenv("REPRO_SERVE_CACHE_MB", "-3")
        with pytest.raises(ReproError, match="from REPRO_SERVE_CACHE_MB"):
            ServeConfig.from_env()
        assert main(["serve", "--port", "0"]) == 2
        assert "from REPRO_SERVE_CACHE_MB" in capsys.readouterr().err
        monkeypatch.delenv("REPRO_SERVE_CACHE_MB")
        assert main(["serve", "--port", "0", "--cache-mb", "-3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "from --cache-mb" in err


class TestPriorServing:
    def test_prior_request_ok_and_history_recorded(self, serve_env,
                                                   tmp_path, monkeypatch):
        store_path = tmp_path / "serve-history.jsonl"
        monkeypatch.setenv("REPRO_PRIOR_STORE", str(store_path))
        thread = start_server()
        try:
            host, port = thread.address
            client = ServeClient(host, port)
            status, uniform = client.discover({"query": "2D_Q91"})
            assert status == 200 and uniform["outcome"] == "ok"
            assert uniform["prior"] == "uniform"
            # The completed run was recorded for future history priors.
            assert store_path.exists()
            status, sampled = client.discover(
                {"query": "2D_Q91", "prior": "sampled"})
            assert status == 200 and sampled["outcome"] == "ok"
            assert sampled["prior"] == "sampled"
            # Never worse at the true location than the uniform run.
            assert (sampled["result"]["total_cost"]
                    <= uniform["result"]["total_cost"] * (1 + 1e-9))
            status, hist = client.discover(
                {"query": "2D_Q91", "prior": "history"})
            assert status == 200 and hist["outcome"] == "ok"
            status, bad = client.discover(
                {"query": "2D_Q91", "prior": "psychic"})
            assert status == 400 and bad["outcome"] == "invalid"
            client.close()
        finally:
            thread.stop()

    def test_server_default_prior_applies(self, serve_env, tmp_path,
                                          monkeypatch):
        monkeypatch.setenv("REPRO_PRIOR_STORE",
                           str(tmp_path / "h.jsonl"))
        thread = start_server(prior="sampled")
        try:
            host, port = thread.address
            client = ServeClient(host, port)
            status, served = client.discover({"query": "2D_Q91"})
            assert status == 200 and served["outcome"] == "ok"
            assert served["prior"] == "sampled"
            client.close()
        finally:
            thread.stop()


# ----------------------------------------------------------------------
# Resident discovery state (worker algorithm memo, front-end
# fingerprint memo, kept history handle)
# ----------------------------------------------------------------------


def worker_spec(query, **fields):
    spec = {"query": query, "algorithm": "sb", "kind": "run", "qa": None,
            "engine": "auto", "profile": "smoke", "resolution": None,
            "ess_mode": "eager", "prior": "uniform", "sleep_s": 0.0,
            "cancel_slot": None, "conformance": False}
    spec.update(fields)
    return spec


def _record_lines(path, key, count):
    """Body of one history-writer process (module level: spawn pickles
    it by import path)."""
    from repro.prior import HistoryStore

    store = HistoryStore(path)
    for i in range(count):
        store.record(key, [1.0 / (i + 1), 0.5])
    store.close()


class TestResidentState:
    SURFACES = (("2D_Q91", 2), ("3D_Q15", 3))

    @pytest.mark.parametrize("seed", fuzz_seeds([7]))
    def test_served_runs_identical_to_fresh_solo_runs(
            self, serve_env, tmp_path, monkeypatch, seed):
        """Reused algorithm objects answer exactly as fresh ones do —
        across interleaved algorithms, priors, surfaces and locations,
        across wholesale memo drops, and under the conformance monitor —
        and every reply's ledger stays inside its total."""
        import random

        from repro.serve import worker

        monkeypatch.setenv("REPRO_PRIOR_STORE", str(tmp_path / "h.jsonl"))
        # Forked pool workers inherit this: with two surfaces in play the
        # memo (and the resident state on it) is dropped wholesale every
        # other load, so reuse and rebuild interleave.
        monkeypatch.setattr(worker, "MEMO_LIMIT", 1)
        rng = random.Random(seed)
        payloads = []
        for index in range(216):
            query, num_dims = self.SURFACES[rng.randrange(2)]
            payloads.append({
                "query": query,
                "algorithm": rng.choice(("pb", "sb", "ab")),
                "prior": rng.choice(("uniform", "sampled")),
                # Log-uniform in [1e-5, 1]: inside every workload grid.
                "qa": [10.0 ** rng.uniform(-5.0, 0.0)
                       for _ in range(num_dims)],
                "conformance": index % 3 == 0,
            })
        thread = start_server()
        try:
            host, port = thread.address
            replies = concurrent_discover(host, port, payloads,
                                          connections=4)
        finally:
            thread.stop()
        pids = set()
        for payload, (status, served) in zip(payloads, replies):
            assert status == 200 and served["outcome"] == "ok", served
            solo = solo_result(
                payload["query"], profile="smoke",
                algorithm=payload["algorithm"], qa=payload["qa"],
                prior=payload["prior"],
            )
            assert (json.dumps(served["result"], sort_keys=True)
                    == json.dumps(solo, sort_keys=True)), payload
            if payload["conformance"]:
                assert served["conformance"]["num_violations"] == 0
            timings = served["timings"]
            parts = sum(timings[part] for part in
                        ("build_s", "queue_s", "load_s", "run_s"))
            assert parts <= timings["total_s"] + 1e-6, timings
            pids.add(served["worker_pid"])
        assert len(pids) == 2  # both pool workers took part

    def test_memo_drop_takes_the_resident_state_with_it(self, serve_env,
                                                        monkeypatch):
        from repro.serve import worker

        worker.run_discovery(worker_spec("2D_Q91"))
        first = workloads.load("2D_Q91", profile="smoke", ess_mode="eager")
        kept = first.resident[("algorithm", "sb", "uniform")]
        worker.run_discovery(worker_spec("2D_Q91"))
        assert first.resident[("algorithm", "sb", "uniform")] is kept
        monkeypatch.setattr(worker, "MEMO_LIMIT", 0)
        out = worker.run_discovery(worker_spec("2D_Q91"))
        assert out["outcome"] == "ok"
        second = workloads.load("2D_Q91", profile="smoke", ess_mode="eager")
        assert second is not first
        assert second.resident[("algorithm", "sb", "uniform")] is not kept

    def test_history_prior_is_never_resident(self, serve_env, tmp_path,
                                             monkeypatch):
        """A recorded observation moves the next history-prior request's
        start contour exactly as it moves a freshly built algorithm's."""
        from repro.serve import worker

        monkeypatch.setenv("REPRO_PRIOR_STORE", str(tmp_path / "h.jsonl"))
        qa = [0.6, 0.7, 0.8]
        spec = worker_spec("3D_Q15", prior="history", qa=qa)
        before = worker.run_discovery(spec)["result"]
        assert before["executions"][0]["contour"] == 1  # empty history
        # ... and that run was recorded, so the store now has one row.
        instance = workloads.load("3D_Q15", profile="smoke",
                                  ess_mode="eager")
        fresh = worker._make_algorithm("sb", instance, prior_kind="history")
        expected = fresh.run(tuple(qa), trace=True).executions[0].contour
        assert expected > 1
        after = worker.run_discovery(spec)["result"]
        assert after["executions"][0]["contour"] == expected
        assert not any(key[0] == "algorithm" and key[2] == "history"
                       for key in instance.resident
                       if isinstance(key, tuple))

    def test_evaluate_leaves_resident_caches_alone(self, serve_env):
        from repro.serve import worker

        def cache_sizes(algorithm):
            return {name: len(value)
                    for name, value in vars(algorithm).items()
                    if name.endswith("_cache") or name == "_cost_surfaces"}

        for name in ("sb", "ab"):
            worker.run_discovery(worker_spec("3D_Q15", algorithm=name))
        instance = workloads.load("3D_Q15", profile="smoke",
                                  ess_mode="eager")
        resident = {name: instance.resident[("algorithm", name, "uniform")]
                    for name in ("sb", "ab")}
        sizes = {name: cache_sizes(algo) for name, algo in resident.items()}
        assert sum(sizes["ab"].values()) > 0  # the runs did fill them
        for name in ("sb", "ab"):
            for engine in ("loop", "batch"):
                out = worker.run_discovery(worker_spec(
                    "3D_Q15", algorithm=name, kind="evaluate",
                    engine=engine))
                assert out["outcome"] == "ok"
        for name, algo in resident.items():
            assert instance.resident[("algorithm", name, "uniform")] is algo
            assert cache_sizes(algo) == sizes[name]

    def test_fingerprint_memo_skips_errors_and_stays_bounded(
            self, serve_env, monkeypatch):
        from repro.serve import server as server_module

        thread = start_server()
        try:
            host, port = thread.address
            client = ServeClient(host, port)
            memo = thread.server._fingerprints
            for _ in range(2):
                status, obj = client.discover({"query": "9D_Q999"})
                assert status == 400 and obj["outcome"] == "invalid"
                assert not memo
            for _ in range(2):
                status, obj = client.discover({"query": "2D_Q91"})
                assert status == 200 and obj["outcome"] == "ok"
                assert list(memo) == [("2D_Q91", None)]
            client.close()

            calls = []

            def fingerprint(request):
                calls.append(request.resolution)
                return f"probe-{request.resolution}", request.resolution

            monkeypatch.setattr(thread.server, "_surface_fingerprint",
                                fingerprint)

            async def probe():
                for resolution in range(2, 10002):
                    request = protocol.parse_discover(
                        {"query": "2D_Q91", "resolution": resolution})
                    known = await thread.server._surface_of(request)
                    assert known == (f"probe-{resolution}", resolution)
                    assert len(memo) <= server_module.FINGERPRINT_MEMO_LIMIT
                # The newest are resident and answered without a call.
                before = len(calls)
                await thread.server._surface_of(request)
                assert len(calls) == before

            thread.submit(probe())
            assert len(calls) == 10000
            assert len(memo) == server_module.FINGERPRINT_MEMO_LIMIT
        finally:
            thread.stop()

    def test_concurrent_history_writers_never_tear_lines(self, tmp_path):
        import multiprocessing

        from repro.prior import HistoryStore

        path = str(tmp_path / "store" / "h.jsonl")
        context = multiprocessing.get_context("spawn")
        writers = [
            context.Process(target=_record_lines, args=(path, key, 400))
            for key in ("fp:a", "fp:b")
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(60.0)
            assert not writer.is_alive() and writer.exitcode == 0
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 800
        assert all(set(json.loads(line)) == {"key", "sel"} for line in lines)
        store = HistoryStore(path)
        for key in ("fp:a", "fp:b"):
            rows = store.observations(key, 2)
            assert sorted(row[0] for row in rows) == sorted(
                1.0 / (i + 1) for i in range(400))

    def test_worker_keeps_one_history_handle(self, serve_env, tmp_path,
                                             monkeypatch):
        from repro.serve import worker

        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        monkeypatch.setenv("REPRO_PRIOR_STORE", str(first))
        worker.run_discovery(worker_spec("2D_Q91"))
        store = worker._history_store()
        handle = store._handle
        worker.run_discovery(worker_spec("2D_Q91"))
        assert worker._history_store() is store and store._handle is handle
        assert len(first.read_text().splitlines()) == 2
        # A closed handle is re-opened, the record still lands ...
        handle.close()
        worker.run_discovery(worker_spec("2D_Q91"))
        assert len(first.read_text().splitlines()) == 3
        # ... a deleted sidecar starts over ...
        first.unlink()
        worker.run_discovery(worker_spec("2D_Q91"))
        assert len(first.read_text().splitlines()) == 1
        # ... a new path replaces the store ...
        monkeypatch.setenv("REPRO_PRIOR_STORE", str(second))
        worker.run_discovery(worker_spec("2D_Q91"))
        assert worker._history_store() is not store
        assert store._handle is None
        assert len(second.read_text().splitlines()) == 1
        # ... and an unwritable one never fails the request.
        monkeypatch.setenv("REPRO_PRIOR_STORE",
                           str(first / "not-a-directory" / "h.jsonl"))
        assert worker.run_discovery(worker_spec("2D_Q91"))["outcome"] == "ok"


class TestBootRace:
    def test_sigterm_straight_after_the_listening_line_drains(
            self, tmp_path):
        """The handlers are in before the address is announced: a stop
        sent the instant the line appears drains (exit 0) instead of
        killing the server by default action under its pool workers."""
        import os
        import signal
        import subprocess
        import sys

        def group_members(pgid):
            members = []
            for entry in os.listdir("/proc"):
                if not entry.isdigit():
                    continue
                try:
                    with open(f"/proc/{entry}/stat") as handle:
                        fields = handle.read().rsplit(")", 1)[1].split()
                except OSError:
                    continue
                if int(fields[2]) == pgid and fields[0] != "Z":
                    members.append(int(entry))
            return members

        def segments():
            return {name for name in os.listdir("/dev/shm")
                    if name.startswith("psm_")}

        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        shm_before = segments()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "--profile", "smoke", "serve",
             "--port", "0", "--workers", "2"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            line = proc.stdout.readline()
            os.kill(proc.pid, signal.SIGTERM)
            assert "listening on" in line
            out, err = proc.communicate(timeout=60.0)
            assert proc.returncode == 0, err
            assert "stopped" in out
            deadline = time.monotonic() + 5.0
            while group_members(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.05)  # a resource tracker ends a moment later
            assert group_members(proc.pid) == []
            assert segments() <= shm_before
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait(10.0)
