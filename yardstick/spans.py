"""The benchmark's own span recorder.

Spans wrap the benchmark's calls into each layer (never code inside the
program).  They are kept in memory and written to ``yardstick/out/``
when the run ends.  With the recorder disabled ``span()`` hands back one
shared no-op context, so the untraced pass pays a method call and
nothing else; the traced-vs-untraced difference of a workload's headline
time is reported as ``obs.bench_trace_overhead_pct``.
"""

from __future__ import annotations

import itertools
import json
import threading
import time


class _NoopSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NOOP = _NoopSpan()


class _Span:
    __slots__ = ("recorder", "record")

    def __init__(self, recorder, record):
        self.recorder = recorder
        self.record = record

    def __enter__(self):
        stack = self.recorder._stack()
        record = self.record
        if stack:
            record["parent"] = stack[-1]["id"]
            record["trace"] = stack[-1]["trace"]
        else:
            record["trace"] = record["id"]
        stack.append(record)
        record["start_ns"] = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        record = self.record
        record["end_ns"] = time.perf_counter_ns()
        self.recorder._stack().pop()
        self.recorder.spans.append(record)
        return False


class SpanRecorder:
    """In-memory span store; nesting is tracked per thread.

    Spans opened inside another span on the same thread become its
    children and share its ``trace`` identifier (the root span's id), so
    all spans of one request carry one identifier.
    """

    def __init__(self, enabled):
        self.enabled = bool(enabled)
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, **attrs):
        if not self.enabled:
            return _NOOP
        record = {"id": next(self._ids), "parent": None, "trace": None,
                  "name": name, "start_ns": 0, "end_ns": 0}
        if attrs:
            record["attrs"] = attrs
        return _Span(self, record)

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return len(self.spans)


#: The recorder of every untraced pass.
OFF = SpanRecorder(False)


def self_times(spans):
    """``{span id: self time in ns}``.

    Self time is a span's duration minus the part of its interval that
    its child spans cover: overlapping children are merged first, and a
    child reaching outside its parent is clipped to it.
    """
    children = {}
    for record in spans:
        if record["parent"] is not None:
            children.setdefault(record["parent"], []).append(record)
    out = {}
    for record in spans:
        start, end = record["start_ns"], record["end_ns"]
        covered = 0
        cursor = start
        for child in sorted(children.get(record["id"], ()),
                            key=lambda c: c["start_ns"]):
            lo = max(child["start_ns"], cursor)
            hi = min(child["end_ns"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[record["id"]] = (end - start) - covered
    return out


def summarize(spans):
    """Per span name: ``{"count", "total_s", "self_s"}``."""
    own = self_times(spans)
    out = {}
    for record in spans:
        row = out.setdefault(record["name"],
                             {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += (record["end_ns"] - record["start_ns"]) / 1e9
        row["self_s"] += own[record["id"]] / 1e9
    return out
