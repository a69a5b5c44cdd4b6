"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(["--profile", "smoke", *argv])
    assert code == 0
    return capsys.readouterr().out


class TestInformational:
    def test_list(self, capsys):
        out = run_cli(capsys, "list")
        assert "4D_Q91" in out and "JOB" in out

    def test_describe(self, capsys):
        out = run_cli(capsys, "describe", "3D_Q15")
        assert "D=3" in out
        assert "POSP size" in out

    def test_guarantees(self, capsys):
        out = run_cli(capsys, "guarantees")
        assert "ideal ratio" in out
        assert "9.90" in out  # the paper's 2-epp 1.8-ratio bound

    def test_guarantees_custom_ratio(self, capsys):
        out = run_cli(capsys, "guarantees", "--ratio", "3.0")
        assert "ratio 3.0" in out


class TestRuns:
    def test_run_sb_default_qa(self, capsys):
        out = run_cli(capsys, "run", "3D_Q15")
        assert "sub-optimality" in out
        assert "spill" in out

    def test_run_native_with_qa(self, capsys):
        out = run_cli(capsys, "run", "3D_Q15", "--algorithm", "native",
                      "--qa", "0.001,0.001,0.001")
        assert "sub-optimality" in out

    def test_run_each_algorithm(self, capsys):
        for algorithm in ("pb", "sb", "ab"):
            out = run_cli(capsys, "run", "3D_Q15", "--algorithm", algorithm)
            assert "execution sequence" in out

    def test_evaluate(self, capsys):
        out = run_cli(capsys, "evaluate", "3D_Q15", "--algorithms", "sb")
        assert "MSOe" in out

    def test_advise(self, capsys):
        out = run_cli(capsys, "advise", "3D_Q15", "--radius", "2")
        assert "recommendation" in out


class TestExperiments:
    @pytest.mark.parametrize("name", ["fig8", "fig9", "lower-bound"])
    def test_cheap_experiments(self, capsys, name):
        out = run_cli(capsys, "experiment", name)
        assert "==" in out

    def test_table3(self, capsys):
        out = run_cli(capsys, "experiment", "table3")
        assert "Table 3" in out


class TestErrorPaths:
    """Bad inputs must fail loudly, with a nonzero exit and a message
    on stderr — never a traceback and never a silent success."""

    def test_unknown_engine_rejected(self, capsys):
        code = main(["wallclock", "--engine", "warp"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--engine" in err and "warp" in err

    @pytest.mark.parametrize("bad", ["abc", "1", "0", "-3"])
    def test_wallclock_bad_resolution_rejected(self, capsys, bad):
        with pytest.raises(SystemExit) as excinfo:
            main(["wallclock", "--resolution", bad])
        assert excinfo.value.code == 2
        assert "resolution" in capsys.readouterr().err

    def test_describe_unknown_workload_reports_error(self, capsys):
        code = main(["--profile", "smoke", "describe", "NO_SUCH_QUERY"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_check_unknown_engine_reports_error(self, capsys):
        code = main(["check", "--workloads", "1", "--engines", "loop,bogus"])
        assert code == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "loop" in err

    def test_loadgen_json_directory_rejected(self, capsys, tmp_path):
        code = main(["loadgen", "--json", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")


class TestBuildAndSave:
    def test_build(self, capsys):
        out = run_cli(capsys, "build", "3D_Q15")
        assert "built ESS" in out

    def test_build_with_save(self, capsys, tmp_path):
        target = tmp_path / "q.npz"
        out = run_cli(capsys, "build", "3D_Q15", "--save", str(target))
        assert target.exists()
        assert "saved" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["bogus"])
