"""``BENCHMARK.json`` against the rules the driver refuses a file on."""

import json
import os
import re

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def _contract():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_shape_and_limits():
    doc = _contract()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["yardstick"]
    assert doc["command"] == ["python3", "yardstick/run.py"]
    assert 1 <= doc["run_seconds"] <= 60
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = [w["name"] for w in doc["workloads"]]
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert len(names) == len(set(names))
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in doc["end_to_end"])}]


def test_agreement_check_uses_each_metrics_own_bound():
    doc = _contract()

    def result(rate):
        metrics = {m["name"]: {"value": 10.0, "unit": m["unit"]}
                   for m in doc["end_to_end"]}
        metrics["rate_per_s"]["value"] = rate
        return {"serve_warm": {"metrics": metrics}}

    bound = next(m["bound"] for m in doc["end_to_end"]
                 if m["name"] == "rate_per_s")
    assert run.disagreements(doc, result(100.0),
                             result(100.0 * (1 + bound / 2))) == []
    lines = run.disagreements(doc, result(100.0),
                              result(100.0 * (1 + bound * 2)))
    assert len(lines) == 1 and "rate_per_s" in lines[0]
