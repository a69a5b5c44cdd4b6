"""Every ``REPRO_*`` environment variable the program reads, in one table.

Each :class:`Setting` names its variable, its type, its floor or
choices, its default, the CLI flag that backs it (if any) and what it
does.  :func:`get` is the one resolver: a flag's value wins, then the
environment, then the default.  A value that does not parse raises
:class:`~repro.errors.ReproError` naming where it came from — the flag
or the variable — so a stale export never passes for a typo on the
command line.  Booleans parse one way everywhere: stripped,
case-insensitive, ``1/true/on/yes`` or ``0/false/off/no``, anything
else rejected.

:func:`get` reads ``os.environ`` on every call and caches nothing:
callers re-point variables mid-process (the benchmark harness moves
``REPRO_CACHE_DIR``; tests use ``monkeypatch.setenv``).  No other
module reads the environment, so a knob exists only if it has a row
here; ``tests/test_settings.py`` counts the rows.  ``docs/serving.md``
("Configuration") documents them for users.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import ReproError

_TRUE = ("1", "true", "on", "yes")
_FALSE = ("0", "false", "off", "no")


@dataclass(frozen=True)
class Setting:
    """One environment variable: how it parses and what it defaults to.

    ``kind`` is ``"bool"``, ``"int"``, ``"float"``, ``"choice"`` or
    ``"path"``.  Numbers must be ``>= floor``; ``choices`` lists the
    accepted words of a choice (and the words an ``int`` accepts
    besides numbers).  ``default`` is a value, or a zero-argument
    callable evaluated at each resolve.
    """

    name: str
    kind: str
    default: object
    doc: str
    flag: str = None
    floor: float = None
    choices: tuple = ()


def _default_cache_dir():
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro", "ess")


def _default_serve_workers():
    return min(4, os.cpu_count() or 1)


SETTINGS = {setting.name: setting for setting in (
    Setting("REPRO_PROFILE", "choice", "bench",
            "grid-resolution profile for workload builds",
            flag="--profile", choices=("smoke", "bench", "paper")),
    Setting("REPRO_ESS", "choice", "eager",
            "ESS surface mode: eager sweep or lazy resolve-on-demand",
            flag="--ess", choices=("eager", "lazy")),
    Setting("REPRO_PRIOR", "choice", "uniform",
            "selectivity prior guiding contour scheduling",
            flag="--prior", choices=("uniform", "sampled", "history")),
    Setting("REPRO_PRIOR_STORE", "path", None,
            "history-prior sidecar; setting it also makes `repro run` "
            "record every discovery (default <cache dir>/"
            "prior_history.jsonl)"),
    Setting("REPRO_WORKERS", "int", 1,
            "worker processes for engine=parallel sweeps; 0 or 1 = "
            "serial, auto = CPU count", floor=0, choices=("auto",)),
    Setting("REPRO_CACHE", "bool", True,
            "persistent ESS archive cache on/off"),
    Setting("REPRO_CACHE_DIR", "path", _default_cache_dir,
            "archive directory (default $XDG_CACHE_HOME/repro/ess)"),
    Setting("REPRO_TRACE", "bool", False,
            "install a process-global span tracer at import"),
    Setting("REPRO_TRACE_OUT", "path", None,
            "with REPRO_TRACE: JSONL trace written when the CLI exits"),
    Setting("REPRO_SERVE_WORKERS", "int", _default_serve_workers,
            "serve: pool processes (default min(4, CPUs))",
            flag="--workers", floor=1),
    Setting("REPRO_SERVE_QUEUE", "int", 64,
            "serve: admitted-but-not-running request ceiling",
            flag="--queue", floor=1),
    Setting("REPRO_SERVE_QUOTA", "int", 16,
            "serve: per-tenant in-flight ceiling", flag="--quota", floor=1),
    Setting("REPRO_SERVE_CACHE_MB", "int", 256,
            "serve: accepted and validated; no longer evicts",
            flag="--cache-mb", floor=0),
    Setting("REPRO_SERVE_TRACE", "int", 0,
            "serve: trace every Nth request (0 = off)",
            flag="--trace-every", floor=0),
    Setting("REPRO_SERVE_TRACE_DIR", "path", None,
            "serve: spool each traced request's JSONL trace here",
            flag="--trace-dir"),
    Setting("REPRO_SERVE_AUDIT", "path", None,
            "serve: slow-request audit JSONL path", flag="--audit"),
    Setting("REPRO_SERVE_AUDIT_THRESHOLD_S", "float", 1.0,
            "serve: seconds past which a request is audited as slow",
            flag="--audit-threshold", floor=0.0),
    Setting("REPRO_SERVE_AUDIT_SAMPLE", "int", 0,
            "serve: also audit every Nth request (0 = slow only)",
            flag="--audit-sample", floor=0),
)}


def get(name, value=None):
    """Resolve setting ``name``.

    ``value`` is a flag's (or caller's) value and wins when not None;
    otherwise the environment variable is read, and an unset or blank
    variable means the default.

    Raises:
        ReproError: the value does not parse, is below the floor or is
            not among the choices; the message names its source.
    """
    setting = SETTINGS[name]
    if value is None:
        value = os.environ.get(name, "").strip()
        if not value:
            default = setting.default
            return default() if callable(default) else default
        source = name
    else:
        source = setting.flag or f"the {name} argument"
    return _parse(setting, value, source)


def export(name, value):
    """Set ``name`` in this process's own environment (parsed as a flag
    value would be), so every later :func:`get` here and in its
    children resolves it."""
    _parse(SETTINGS[name], value, f"the {name} argument")
    os.environ[name] = str(value)


def _parse(setting, value, source):
    text = str(value).strip()
    if setting.kind == "path":
        if text.isprintable():
            return text
        expected = "a printable path"
    else:
        text = text.lower()
        if setting.kind == "bool":
            if text in _TRUE or text in _FALSE:
                return text in _TRUE
            expected = "one of " + ", ".join(_TRUE + _FALSE)
        elif text in setting.choices:
            return text
        elif setting.kind == "choice":
            expected = "one of " + ", ".join(setting.choices)
        else:
            number = int if setting.kind == "int" else float
            try:
                parsed = number(text)
            except ValueError:
                parsed = None
            # NaN fails the comparison, so it is rejected too.
            if parsed is not None and parsed >= setting.floor:
                return parsed
            expected = (f"{'an integer' if number is int else 'a number'}"
                        f" >= {setting.floor}")
            if setting.choices:
                expected += " or " + ", ".join(setting.choices)
    raise ReproError(f"invalid value {value!r} from {source}; "
                     f"expected {expected}")
