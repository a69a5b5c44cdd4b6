"""The settings table: one resolver for every ``REPRO_*`` variable.

Each declared setting must reject a malformed value — from the library
as a :class:`ReproError` naming the variable, from the CLI as an
``error:`` line with exit 2 before any work.  The census at the end
keeps the table the only place a knob can exist.
"""

import os
import pathlib
import re
import subprocess
import sys

import pytest

from repro import settings
from repro.bench import workloads
from repro.cli import main
from repro.errors import ReproError

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: A malformed value of each kind.
MALFORMED = {
    "bool": "maybe",
    "int": "banana",
    "float": "x",
    "choice": "bogus",
    "path": "a\x01b",
}

#: ``REPRO_*`` variables the test harness reads (``tests/conftest.py``),
#: documented in docs/testing.md; the package never reads them.
TEST_HARNESS_VARIABLES = {"REPRO_TEST_SEED"}


def _bad_values(setting):
    bad = [MALFORMED[setting.kind]]
    if setting.floor is not None:
        bad.append(str(setting.floor - 1))
    return bad


@pytest.mark.parametrize("name", sorted(settings.SETTINGS))
def test_malformed_value_is_rejected_naming_its_source(name, monkeypatch,
                                                       capsys):
    for bad in _bad_values(settings.SETTINGS[name]):
        monkeypatch.setenv(name, bad)
        with pytest.raises(ReproError, match=f"from {name}"):
            settings.get(name)
        assert main(["list"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err


@pytest.mark.parametrize("name", sorted(settings.SETTINGS))
def test_blank_variable_means_default(name, monkeypatch):
    default = settings.SETTINGS[name].default
    monkeypatch.setenv(name, "  ")
    assert settings.get(name) == (default() if callable(default)
                                  else default)


@pytest.mark.parametrize("raw, expected", [
    ("1", True), (" ON ", True), ("Yes", True), ("TRUE", True),
    ("0", False), ("OFF", False), (" no", False), ("False", False),
])
def test_booleans_parse_one_way(raw, expected, monkeypatch):
    for name in ("REPRO_CACHE", "REPRO_TRACE", "REPRO_FORCE_PARALLEL"):
        monkeypatch.setenv(name, raw)
        assert settings.get(name) is expected


def test_no_setting_is_read_at_import_except_trace():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({name: _bad_values(setting)[0]
                for name, setting in settings.SETTINGS.items()
                if name != "REPRO_TRACE"})
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import repro, repro.cli, repro.serve.server, repro.serve.worker"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# ----------------------------------------------------------------------
# Census: the table is the only place a knob can exist
# ----------------------------------------------------------------------


def test_table_size():
    """Adding a knob means adding a row here, on purpose."""
    assert len(settings.SETTINGS) == 19


def test_only_the_settings_module_reads_the_environment():
    readers = sorted(
        str(path.relative_to(ROOT))
        for path in (ROOT / "src" / "repro").rglob("*.py")
        if path.name != "settings.py"
        and re.search(r"os\.environ|os\.getenv", path.read_text())
    )
    assert readers == []


def test_every_named_variable_is_declared():
    paths = [ROOT / "README.md", *(ROOT / "docs").rglob("*.md"),
             *(ROOT / "src").rglob("*.py")]
    named = {
        (match, str(path.relative_to(ROOT)))
        for path in paths
        for match in re.findall(r"REPRO_[A-Z_]*[A-Z]", path.read_text())
    }
    undeclared = sorted(
        (name, where) for name, where in named
        if name not in settings.SETTINGS
        and name not in TEST_HARNESS_VARIABLES
    )
    assert undeclared == []


def test_docs_table_lists_every_setting():
    text = (ROOT / "docs" / "serving.md").read_text()
    table = text.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| `(REPRO_[A-Z_]+)`", table, re.M))
    assert documented == set(settings.SETTINGS)


def test_profile_choices_match_resolution_profiles():
    assert set(settings.SETTINGS["REPRO_PROFILE"].choices) == \
        set(workloads.RESOLUTION_PROFILES)
