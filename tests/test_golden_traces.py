"""Golden traces: discovery results pinned field by field.

``tests/fixtures/golden_traces.json`` holds full traced
``DiscoveryResult``s (and two engine-driven ``EngineReport`` step lists)
taken from the commit *before* the scalar walk was unified in
``repro.core.discovery``.  Ints, strings and bools must match exactly,
floats to 1e-12 relative — so a refactor of the walk, its executors or
the algorithms' step planning cannot move a charge, a record or a
counter unnoticed.

Regenerate (only for a deliberate behaviour change, and say so in the
commit): ``PYTHONPATH=src python tests/test_golden_traces.py``.
"""

import json
import math
import os

import numpy as np
import pytest

os.environ.setdefault("REPRO_PROFILE", "smoke")

from repro import AlignedBound, PlanBouquet, SpillBound  # noqa: E402
from repro.bench import workloads  # noqa: E402
from repro.bench.wallclock import build_wallclock_setup  # noqa: E402
from repro.core.randomized import RandomizedSpillBound  # noqa: E402
from repro.engine.driver import EngineDiscoveryDriver  # noqa: E402
from repro.ess.dependence import (  # noqa: E402
    CorrelatedSpillBound,
    CorrelationSpec,
)
from repro.prior import make_prior  # noqa: E402

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "golden_traces.json")
WORKLOADS = ("3D_Q42", "4D_Q26")
ALGORITHMS = {"pb": PlanBouquet, "sb": SpillBound, "ab": AlignedBound}
QA_SEED = 20190408
QA_PER_WORKLOAD = 8
RECORD_FIELDS = (
    "contour", "plan_id", "plan_key", "mode", "spill_dim", "budget",
    "charged", "completed", "learned_selectivity", "fresh", "penalty",
)
RESULT_FIELDS = (
    "total_cost", "optimal_cost", "num_executions",
    "num_repeat_executions", "contours_visited", "completed_plan_key",
    "max_penalty",
)
STEP_FIELDS = (
    "contour", "plan_key", "mode", "spill_epp", "budget", "cost_spent",
    "completed", "learned_selectivity",
)


def _plain(value):
    """numpy scalars -> the Python value JSON stores."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def _fields(obj, names):
    return {name: _plain(getattr(obj, name)) for name in names}


def _result_payload(result):
    payload = _fields(result, RESULT_FIELDS)
    payload["qa_coords"] = [int(c) for c in result.qa_coords]
    payload["executions"] = [
        _fields(record, RECORD_FIELDS) for record in result.executions
    ]
    return payload


def _step_payload(record, query):
    """An engine run's ExecutionRecord in the fixture's step fields: the
    spilled epp by name (``""`` in normal mode), the charge as
    ``cost_spent``."""
    row = {name: _plain(getattr(record, name, None)) for name in STEP_FIELDS}
    row["spill_epp"] = ("" if record.spill_dim is None
                        else query.epps[record.spill_dim].name)
    row["cost_spent"] = _plain(record.charged)
    return row


def _qa_spread(grid):
    """Origin, terminus and a seeded draw of interior locations."""
    rng = np.random.default_rng(QA_SEED)
    drawn = rng.choice(grid.num_points, size=QA_PER_WORKLOAD, replace=False)
    return [0, grid.num_points - 1] + sorted(int(f) for f in drawn)


def collect():
    """Every pinned case, keyed by a readable case id."""
    cases = {}
    for name in WORKLOADS:
        instance = workloads.load(name, profile="smoke", ess_mode="eager")
        ess, contours = instance.ess, instance.contours
        flats = _qa_spread(ess.grid)
        priors = {
            "uniform": None,
            "sampled": make_prior("sampled", query=instance.query, ess=ess,
                                  seed=5),
        }
        for prior_name, prior in priors.items():
            for algo, cls in ALGORITHMS.items():
                algorithm = cls(ess, contours, prior=prior)
                for flat in flats:
                    cases[f"{name}/{algo}/{prior_name}/{flat}"] = (
                        _result_payload(algorithm.run(flat, trace=True))
                    )
        if name != WORKLOADS[0]:
            continue
        randomized = RandomizedSpillBound(ess, contours, seed=3)
        for sample in (0, 1):
            randomized.set_sample(sample)
            for flat in flats:
                cases[f"{name}/randomized/{sample}/{flat}"] = (
                    _result_payload(randomized.run(flat, trace=True))
                )
        for theta in (0.0, 0.7):
            correlated = CorrelatedSpillBound(
                ess, [CorrelationSpec(0, 1, theta)], contours
            )
            for flat in flats:
                cases[f"{name}/correlated/{theta}/{flat}"] = (
                    _result_payload(correlated.run(flat, trace=True))
                )
    setup = build_wallclock_setup(row_budget=6_000, seed=7, resolution=6)
    for algo in ("sb", "ab"):
        report = EngineDiscoveryDriver(
            ALGORITHMS[algo](setup.ess, setup.contours), setup.generator,
            engine="vector",
        ).run()
        cases[f"engine/{algo}"] = {
            "total_cost": float(report.total_cost),
            "rows_out": int(report.rows_out),
            "completed_plan_key": report.completed_plan_key,
            "steps": [_step_payload(step, setup.query)
                      for step in report.steps],
        }
    return cases


def _mismatches(expected, actual, path):
    """Paths at which ``actual`` departs from ``expected``."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or expected.keys() != actual.keys():
            return [f"{path}: keys differ"]
        return [m for key in expected
                for m in _mismatches(expected[key], actual[key],
                                     f"{path}.{key}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return [f"{path}: length differs"]
        return [m for k, (e, a) in enumerate(zip(expected, actual))
                for m in _mismatches(e, a, f"{path}[{k}]")]
    if isinstance(expected, float) and not isinstance(expected, bool):
        same = isinstance(actual, float) and (
            (math.isnan(expected) and math.isnan(actual))
            or math.isclose(expected, actual, rel_tol=1e-12, abs_tol=0.0)
        )
    else:
        same = type(expected) is type(actual) and expected == actual
    return [] if same else [f"{path}: {expected!r} != {actual!r}"]


def _rows(cases, convert):
    """Apply ``convert(row, field names)`` to every record / step row."""
    for case in cases.values():
        for key, names in (("executions", RECORD_FIELDS),
                           ("steps", STEP_FIELDS)):
            if key in case:
                case[key] = [convert(row, names) for row in case[key]]


def write_fixture(cases):
    """One case per line, so a behaviour change diffs by case.  Rows are
    stored as value lists in field order and plan keys (a few hundred
    characters, repeated per row) once, referenced by position."""
    table = {}

    def pack(row, names):
        return [table.setdefault(row[n], len(table))
                if n == "plan_key" else row[n] for n in names]

    _rows(cases, pack)
    for case in cases.values():
        case["completed_plan_key"] = table[case["completed_plan_key"]]
    lines = [json.dumps(name) + ":" + json.dumps(
        cases[name], sort_keys=True, separators=(",", ":"))
        for name in sorted(cases)]
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        handle.write('{"plan_keys":' + json.dumps(list(table), indent=0)
                     + ',\n"cases":{\n' + ",\n".join(lines) + "\n}}\n")


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE, encoding="utf-8") as handle:
        stored = json.load(handle)
    cases, keys = stored["cases"], stored["plan_keys"]

    def unpack(row, names):
        row = dict(zip(names, row))
        row["plan_key"] = keys[row["plan_key"]]
        return row

    _rows(cases, unpack)
    for case in cases.values():
        case["completed_plan_key"] = keys[case["completed_plan_key"]]
    return cases


@pytest.fixture(scope="module")
def current():
    # Through JSON, so both sides carry the same plain types.
    return json.loads(json.dumps(collect()))


def test_same_cases(golden, current):
    assert sorted(golden) == sorted(current)


@pytest.mark.parametrize("group", [
    "3D_Q42/pb", "3D_Q42/sb", "3D_Q42/ab", "4D_Q26/pb", "4D_Q26/sb",
    "4D_Q26/ab", "3D_Q42/randomized", "3D_Q42/correlated", "engine",
])
def test_traces_match_fixture(golden, current, group):
    names = [name for name in golden if name.startswith(group + "/")]
    assert names, f"no golden case under {group}"
    problems = [m for name in names
                for m in _mismatches(golden[name], current[name], name)]
    assert not problems, "\n".join(problems[:20])


def test_comparison_catches_a_moved_charge(golden):
    name = next(n for n in golden if n.startswith("3D_Q42/sb/uniform/"))
    tampered = json.loads(json.dumps(golden[name]))
    tampered["executions"][0]["charged"] *= 1.0 + 1e-9
    assert _mismatches(golden[name], tampered, name)
    tampered = json.loads(json.dumps(golden[name]))
    tampered["executions"][0]["fresh"] = not tampered["executions"][0]["fresh"]
    assert _mismatches(golden[name], tampered, name)


if __name__ == "__main__":
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    write_fixture(collect())
    print(f"wrote {FIXTURE}")
