import json

import spans


def _record(span_id, parent, start, end, name="x"):
    return {"id": span_id, "parent": parent, "trace": 1, "name": name,
            "start_ns": start, "end_ns": end}


def test_self_time_subtracts_merged_and_clipped_children():
    records = [
        _record(1, None, 0, 100, "parent"),
        _record(2, 1, 10, 30, "child"),
        _record(3, 1, 20, 50, "child"),     # overlaps span 2
        _record(4, 1, 90, 120, "child"),    # reaches past the parent
        _record(5, 2, 12, 18, "grandchild"),
    ]
    own = spans.self_times(records)
    assert own[1] == 100 - (40 + 10)
    assert own[2] == 20 - 6
    assert own[3] == 30
    assert own[5] == 6
    summary = spans.summarize(records)
    assert summary["child"]["count"] == 3
    assert summary["parent"]["self_s"] == 50 / 1e9


def test_recorder_nests_and_shares_one_trace_id(tmp_path):
    recorder = spans.SpanRecorder(True)
    with recorder.span("request", index=7):
        with recorder.span("send"):
            pass
        with recorder.span("wait"):
            pass
    with recorder.span("request"):
        pass
    by_name = {}
    for record in recorder.spans:
        by_name.setdefault(record["name"], []).append(record)
    first, second = by_name["request"]
    assert first["parent"] is None and first["trace"] == first["id"]
    assert second["trace"] == second["id"] != first["id"]
    for child in by_name["send"] + by_name["wait"]:
        assert child["parent"] == first["id"]
        assert child["trace"] == first["id"]
        assert first["start_ns"] <= child["start_ns"] <= child["end_ns"]
    path = tmp_path / "spans.jsonl"
    assert recorder.write_jsonl(path) == 4
    lines = path.read_text().splitlines()
    assert json.loads(lines[0])["name"] == "send"


def test_disabled_recorder_keeps_nothing():
    recorder = spans.SpanRecorder(False)
    with recorder.span("request"):
        with recorder.span("send"):
            pass
    assert recorder.spans == []
