"""A wrong reference must fail the command, not just print a warning."""

import json
import os

import pytest

import run
import serve_common

ARGV = ["--workload", "serve_warm", "--seed", "1", "--seconds", "2",
        "--trace", "0"]


@pytest.fixture
def restored_environment():
    saved = dict(os.environ)
    yield
    os.environ.clear()
    os.environ.update(saved)


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_right_reference_passes(restored_environment, capsys):
    assert run.main(ARGV) == 0
    result = _last_json(capsys)
    assert result["correct"] is True and result["failed"] == 0


def test_wrong_reference_exits_non_zero(restored_environment, capsys,
                                        monkeypatch):
    monkeypatch.setattr(serve_common, "reference_result",
                        lambda request: {"suboptimality": -1.0})
    assert run.main(ARGV) == 1
    result = _last_json(capsys)
    assert result["correct"] is False
    # one failed check per surface of the workload
    assert result["failed"] == 5
