"""Tests for the observability CLI surface: ``repro trace``,
``repro stats``, the ``--trace-out`` flag, and the up-front check every
file-writing flag gets."""

import json

import pytest

from repro.cli import main
from repro.obs.export import read_trace_jsonl


def run_cli(capsys, *argv):
    code = main(["--profile", "smoke", *argv])
    assert code == 0
    return capsys.readouterr().out


class TestTraceCommand:
    def test_trace_writes_jsonl_and_html(self, capsys, tmp_path):
        out_dir = tmp_path / "tr"
        out = run_cli(capsys, "trace", "--query", "2D_Q42",
                      "--out", str(out_dir))
        assert "sb on 2D_Q42" in out
        jsonl = out_dir / "2D_Q42_sb.trace.jsonl"
        html = out_dir / "2D_Q42_sb.waterfall.html"
        assert jsonl.exists() and html.exists()
        meta, spans = read_trace_jsonl(str(jsonl))
        assert meta["schema"] == "repro.trace.v1"
        assert any(s["name"] == "discovery.run" for s in spans)
        assert any(s["name"] == "discovery.execution" for s in spans)
        text = html.read_text(encoding="utf-8")
        assert "<svg" in text and "2D_Q42" in text

    def test_format_jsonl_skips_html(self, capsys, tmp_path):
        out_dir = tmp_path / "tr"
        run_cli(capsys, "trace", "--query", "2D_Q42",
                "--out", str(out_dir), "--format", "jsonl")
        assert (out_dir / "2D_Q42_sb.trace.jsonl").exists()
        assert not (out_dir / "2D_Q42_sb.waterfall.html").exists()

    def test_format_html_skips_jsonl(self, capsys, tmp_path):
        out_dir = tmp_path / "tr"
        run_cli(capsys, "trace", "--query", "2D_Q42",
                "--out", str(out_dir), "--format", "html")
        assert not (out_dir / "2D_Q42_sb.trace.jsonl").exists()
        assert (out_dir / "2D_Q42_sb.waterfall.html").exists()

    def test_unknown_format_reports_error(self, capsys, tmp_path):
        code = main(["--profile", "smoke", "trace", "--query", "2D_Q42",
                     "--out", str(tmp_path / "tr"), "--format", "bogus"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "unknown export format" in err and "bogus" in err

    def test_out_pointing_at_file_reports_error(self, capsys, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        code = main(["--profile", "smoke", "trace", "--query", "2D_Q42",
                     "--out", str(blocker)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "not a directory" in err

    def test_unknown_query_reports_error(self, capsys, tmp_path):
        code = main(["--profile", "smoke", "trace", "--query", "NO_SUCH",
                     "--out", str(tmp_path / "tr")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


class TestStatsCommand:
    def test_prometheus_output(self, capsys):
        out = run_cli(capsys, "stats", "--query", "2D_Q42")
        assert "# TYPE repro_discovery_runs_total counter" in out
        assert 'repro_discovery_runs_total{algorithm="sb"}' in out
        assert "# TYPE repro_phase_seconds_total counter" in out

    def test_json_output_parses(self, capsys):
        out = run_cli(capsys, "stats", "--query", "2D_Q42",
                      "--format", "json")
        summary = json.loads(out)
        assert set(summary) >= {"phases", "counters", "gauges",
                                "histograms"}
        assert summary["counters"]['discovery_runs{algorithm=sb}'] >= 1

    def test_stats_without_query_renders(self, capsys):
        # No run is forced; whatever the process accumulated renders.
        code = main(["--profile", "smoke", "stats"])
        assert code == 0

    def test_unknown_format_reports_error(self, capsys):
        code = main(["--profile", "smoke", "stats", "--format", "xml"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "unknown export format" in err


class TestTraceOutFlag:
    def test_run_trace_out_writes_jsonl(self, capsys, tmp_path):
        target = tmp_path / "runs" / "q42.jsonl"
        out = run_cli(capsys, "run", "2D_Q42", "--trace-out", str(target))
        assert f"wrote {target}" in out
        meta, spans = read_trace_jsonl(str(target))
        assert meta["schema"] == "repro.trace.v1"
        assert any(s["name"] == "discovery.run" for s in spans)

    @pytest.mark.parametrize("kind", ["directory", "uncreatable"])
    @pytest.mark.parametrize("argv, flag", [
        pytest.param(["run", "2D_Q42"], "--trace-out", id="run"),
        pytest.param(["wallclock", "--rows", "6000", "--resolution", "8"],
                     "--trace-out", id="wallclock"),
        pytest.param(["loadgen", "--port", "1"], "--json", id="loadgen"),
        pytest.param(["arena", "--workloads", "1", "--engine", "batch"],
                     "--json", id="arena-json"),
        pytest.param(["arena", "--workloads", "1", "--engine", "batch"],
                     "--svg", id="arena-svg"),
        pytest.param(["check", "--workloads", "1"], "--jsonl", id="check"),
        pytest.param(["build", "2D_Q42"], "--save", id="build"),
    ])
    def test_bad_output_path_reports_error(self, capsys, tmp_path, argv,
                                           flag, kind):
        """Every flag that writes a file is checked before the command
        runs: exit 2, an ``error:`` line naming the flag, no output."""
        if kind == "directory":
            target, reason = tmp_path, "is a directory"
        else:
            blocker = tmp_path / "blocker"
            blocker.write_text("a file, not a directory")
            target, reason = blocker / "sub" / "out.dat", "cannot create"
        code = main(["--profile", "smoke", *argv, flag, str(target)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert flag in captured.err and reason in captured.err
        assert captured.out == ""

    def test_tracer_uninstalled_after_command(self, capsys, tmp_path):
        from repro.obs import trace

        before = trace.active_tracer()
        run_cli(capsys, "run", "2D_Q42",
                "--trace-out", str(tmp_path / "t.jsonl"))
        assert trace.active_tracer() is before
