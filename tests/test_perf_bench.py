"""Smoke tests for the perf benchmark (repro bench)."""

import json

import numpy as np
import pytest

from repro.bench import workloads


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ess-cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    workloads.clear_cache()
    yield
    workloads.clear_cache()


class TestBenchArtifact:
    def test_write_artifact_creates_dirs_and_utf8(self, tmp_path):
        from repro.bench.perfbench import write_artifact

        path = tmp_path / "deep" / "nested" / "bench.json"
        write_artifact(str(path), {"note": "µ-bench ≤1", "schema_version": 1,
                                   "phases": {"x": {"total_s": 0.25}}})
        text = path.read_text(encoding="utf-8")
        assert "µ-bench ≤1" in text and text.endswith("\n")
        on_disk = json.loads(text)
        assert on_disk["schema_version"] == 1
        assert on_disk["phases"]["x"]["total_s"] == 0.25


@pytest.mark.smoke_bench
class TestSmokeBench:
    """Fast end-to-end run of the perf benchmark at smoke scale.

    Marked ``smoke_bench`` so tier-1 can deselect it if it ever grows;
    at smoke resolution the whole thing is sub-second.
    """

    def test_run_bench_writes_artifact(self, isolated_cache, tmp_path):
        from repro.bench.perfbench import BENCH_SCHEMA_VERSION, run_bench

        path = tmp_path / "BENCH_smoke.json"
        payload = run_bench(json_path=str(path), query="2D_Q91",
                            profile="smoke", workers=2)
        on_disk = json.loads(path.read_text())
        assert on_disk["schema_version"] == BENCH_SCHEMA_VERSION
        assert payload["cache"]["roundtrip_identical"] is True
        assert payload["cache"]["cache_hit"] is True
        assert payload["cache"]["warm_load_s"] > 0
        assert set(payload["sweeps"]) == {"pb", "sb", "ab"}
        for stats in payload["sweeps"].values():
            assert stats["batch_identical"] is True
            assert stats["max_abs_deviation"] == 0.0
            assert stats["loop_s"] > 0 and stats["batch_s"] > 0
        for stats in payload["parallel"].values():
            assert stats["workers_requested"] == 2
            if stats["skipped"]:
                assert stats["skip_reason"]
            else:
                assert stats["max_abs_deviation"] == 0.0
        assert "ess_build" in on_disk["phases"]
        assert on_disk["hardware"]["cpu_count"] >= 1
        assert on_disk["hardware"]["numpy"] == np.__version__

    def test_cli_bench_subcommand(self, isolated_cache, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "BENCH_cli.json"
        code = main(["--profile", "smoke", "bench", "--query", "2D_Q91",
                     "--workers", "2", "--json", str(path)])
        assert code == 0
        assert path.exists()
        out = capsys.readouterr().out
        assert "perf bench on 2D_Q91" in out
