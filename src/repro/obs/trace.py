"""Span-based tracing with a zero-overhead disabled path.

A :class:`Tracer` produces :class:`Span` records — trace/span ids,
parent links, attributes, monotonic nanosecond timestamps — from
``with span("name", key=value):`` blocks placed throughout the
pipeline (sweep engines, cache loads, engine executions, conformance
workloads).  Spans nest through a thread-local stack, so the parent
link always reflects the dynamic call structure.

Tracing is **off by default**: the module-level :func:`span` function
returns a shared no-op context manager unless a tracer is installed,
so an instrumented call site costs one global load and a ``None``
check.  Enablement paths:

* ``REPRO_TRACE=1`` in the environment installs a process-global
  tracer at import time (``REPRO_TRACE_OUT=<path>`` additionally
  writes the JSONL trace there at exit via :func:`flush_env_tracer`) —
  the one setting of :mod:`repro.settings` read at import;
* the CLI's ``repro trace`` subcommand and ``--trace-out`` flags
  install one explicitly for the duration of a command;
* tests install scoped tracers through :func:`install_tracer`.

Span durations are wall-clock-free (``perf_counter_ns``); since that
clock is not comparable across processes, every span additionally
records a ``time_unix_ns`` wall-clock anchor at entry so merged
multi-process timelines order correctly.  Discovery-run spans
additionally carry the *cost timeline* (``cost_start`` / ``cost_end``
attributes) — for the paper's algorithms the interesting axis is
budgeted cost, not wall time (see :mod:`repro.obs.runtrace`).

Cross-process propagation: :func:`current_context` captures a
serializable :class:`TraceContext` (trace id + parent span id +
wall-clock anchor), a worker process builds a :func:`child_tracer`
from its wire form, runs its work under it, and ships
``[s.to_record() for s in tracer.spans]`` home with the result
payload; the parent then :meth:`Tracer.splice`\\ s those records into
its own span list, producing one tree under one trace id.  Span ids
carry a per-tracer random prefix so ids minted in different processes
never collide.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
import warnings

from repro import settings

#: Hard cap on retained spans per tracer; beyond it spans are counted
#: (``tracer.dropped``) but not stored, so a traced exhaustive sweep
#: cannot exhaust memory.
MAX_SPANS = 200_000


class Span:
    """One finished (or in-flight) operation in a trace."""

    __slots__ = (
        "trace_id", "span_id", "parent_id", "name", "attrs",
        "start_ns", "end_ns", "time_unix_ns",
    )

    def __init__(self, trace_id, span_id, parent_id, name, attrs):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self.start_ns = 0
        self.end_ns = 0
        self.time_unix_ns = 0

    @property
    def duration_ns(self):
        return self.end_ns - self.start_ns

    def set_attr(self, key, value):
        self.attrs[key] = value

    def to_record(self):
        """Plain-data form used by the JSONL exporter."""
        return {
            "kind": "span",
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "time_unix_ns": self.time_unix_ns,
            "attrs": self.attrs,
        }

    @classmethod
    def from_record(cls, record):
        """Rebuild a span from its :meth:`to_record` form (used when a
        parent splices records shipped home by a worker process)."""
        span = cls(
            trace_id=record["trace_id"],
            span_id=record["span_id"],
            parent_id=record.get("parent_id", ""),
            name=record["name"],
            attrs=dict(record.get("attrs") or {}),
        )
        span.start_ns = record.get("start_ns", 0)
        span.end_ns = record.get("end_ns", 0)
        span.time_unix_ns = record.get("time_unix_ns", 0)
        return span


class _NoopSpan:
    """Shared do-nothing span: the disabled-tracing fast path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set_attr(self, key, value):
        pass


NOOP_SPAN = _NoopSpan()


class _ActiveSpan:
    """Context manager that opens/closes one real span."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer, span):
        self._tracer = tracer
        self.span = span

    def __enter__(self):
        self.span.time_unix_ns = time.time_ns()
        self.span.start_ns = time.perf_counter_ns()
        self._tracer._push(self.span)
        return self.span

    def __exit__(self, exc_type, exc, tb):
        self.span.end_ns = time.perf_counter_ns()
        if exc_type is not None:
            self.span.attrs["error"] = exc_type.__name__
        self._tracer._pop(self.span)
        return False


class TraceContext:
    """Serializable handle that carries a trace across processes.

    Wire form (``to_wire``) is a plain JSON/pickle-safe dict so it can
    ride inside worker spec dicts and task tuples:

    ``{"trace_id": hex, "parent_span_id": hex, "anchor_unix_ns": int}``

    ``anchor_unix_ns`` is the parent's wall clock at capture time; a
    child process can compare it against its own ``time.time_ns()`` to
    sanity-check clock skew, and merged-timeline renderers use the
    spans' own ``time_unix_ns`` anchors for ordering.
    """

    __slots__ = ("trace_id", "parent_span_id", "anchor_unix_ns")

    def __init__(self, trace_id, parent_span_id="", anchor_unix_ns=0):
        self.trace_id = trace_id
        self.parent_span_id = parent_span_id
        self.anchor_unix_ns = int(anchor_unix_ns)

    def to_wire(self):
        return {
            "trace_id": self.trace_id,
            "parent_span_id": self.parent_span_id,
            "anchor_unix_ns": self.anchor_unix_ns,
        }

    @classmethod
    def from_wire(cls, wire):
        if wire is None:
            return None
        if isinstance(wire, TraceContext):
            return wire
        return cls(
            trace_id=wire["trace_id"],
            parent_span_id=wire.get("parent_span_id", ""),
            anchor_unix_ns=wire.get("anchor_unix_ns", 0),
        )


class Tracer:
    """Collects spans for one logical trace.

    Thread-safe: each thread nests spans on its own stack; finished
    spans land in one shared, bounded list in completion order.

    ``trace_id``/``parent_span_id`` let a worker process join a trace
    started elsewhere (see :func:`child_tracer`): root spans opened on
    such a child tracer parent onto ``parent_span_id``, and the random
    per-tracer span-id prefix keeps ids minted in different processes
    from colliding even though each tracer counts from 1.
    """

    def __init__(self, max_spans=MAX_SPANS, trace_id=None, parent_span_id=""):
        self.enabled = True
        self.max_spans = max_spans
        self.trace_id = trace_id or os.urandom(8).hex()
        self.parent_span_id = parent_span_id
        self.spans = []
        self.dropped = 0
        self.started_at = time.time()
        self._ids = itertools.count(1)
        self._id_prefix = os.urandom(3).hex()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, /, **attrs):
        """Open a child span of the current thread's active span.

        ``name`` is positional-only so an attribute may also be called
        ``name`` without colliding.
        """
        if not self.enabled:
            return NOOP_SPAN
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else self.parent_span_id
        record = Span(
            trace_id=self.trace_id,
            span_id=f"{self._id_prefix}{next(self._ids):08x}",
            parent_id=parent_id,
            name=name,
            attrs=dict(attrs),
        )
        return _ActiveSpan(self, record)

    def current_span(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def _push(self, record):
        self._stack().append(record)

    def _pop(self, record):
        stack = self._stack()
        if stack and stack[-1] is record:
            stack.pop()
        self._retain(record)

    def _retain(self, record):
        if len(self.spans) < self.max_spans:
            self.spans.append(record)
            return
        self.dropped += 1
        _count_drop(self)

    def splice(self, records):
        """Adopt span records shipped home by a child-process tracer.

        Records whose trace id does not match are ignored (a stale
        worker could ship spans from a previous request); the rest are
        appended under the same ``max_spans`` bound as locally produced
        spans.  Returns the number of spans adopted.
        """
        adopted = 0
        for record in records or ():
            if record.get("trace_id") != self.trace_id:
                continue
            self._retain(Span.from_record(record))
            adopted += 1
        return adopted

    def context(self):
        """A :class:`TraceContext` for handing work to another process,
        parented on this thread's active span (or this tracer's own
        parent when no span is open)."""
        current = self.current_span()
        parent = current.span_id if current is not None else self.parent_span_id
        return TraceContext(
            trace_id=self.trace_id,
            parent_span_id=parent,
            anchor_unix_ns=time.time_ns(),
        )

    def meta(self):
        """Trace-level metadata (the JSONL header line)."""
        return {
            "kind": "meta",
            "schema": TRACE_SCHEMA,
            "trace_id": self.trace_id,
            "started_at_unix_s": self.started_at,
            "spans": len(self.spans),
            "dropped": self.dropped,
        }


#: Version tag carried in every JSONL trace header.
TRACE_SCHEMA = "repro.trace.v1"

#: The installed process-global tracer (None = tracing disabled).
_TRACER = None

#: Guard so the ring-full warning fires once per process, not once per
#: dropped span.
_WARNED_DROP = False


def _count_drop(tracer):
    """Account one dropped span: bump the registry counter (satellite:
    ``repro_trace_spans_dropped_total``) and warn the first time any
    tracer's ring fills in this process."""
    global _WARNED_DROP
    from repro.obs.metrics import REGISTRY

    REGISTRY.incr("trace_spans_dropped")
    if not _WARNED_DROP:
        _WARNED_DROP = True
        warnings.warn(
            "trace ring full: tracer %s reached max_spans=%d; further "
            "spans are counted in repro_trace_spans_dropped_total but "
            "not stored" % (tracer.trace_id, tracer.max_spans),
            RuntimeWarning,
            stacklevel=4,
        )


def active_tracer():
    """The installed tracer, or None when tracing is disabled."""
    return _TRACER


def install_tracer(tracer):
    """Install (or with None, uninstall) the global tracer.

    Returns the previously installed tracer so scoped users (the CLI,
    tests) can restore it.
    """
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


def enabled():
    tracer = _TRACER
    return tracer is not None and tracer.enabled


def span(name, /, **attrs):
    """Open a span on the global tracer — or do nothing, cheaply."""
    tracer = _TRACER
    if tracer is None or not tracer.enabled:
        return NOOP_SPAN
    return tracer.span(name, **attrs)


def current_span():
    """The active span on this thread, or None (also None when
    tracing is disabled — use through ``span(...).set_attr`` guards)."""
    tracer = _TRACER
    if tracer is None:
        return None
    return tracer.current_span()


def current_context():
    """A :class:`TraceContext` for the active trace, or None when
    tracing is disabled.  Capture this *inside* the span that should
    become the cross-process parent, then pass ``.to_wire()`` with the
    task payload."""
    tracer = _TRACER
    if tracer is None or not tracer.enabled:
        return None
    return tracer.context()


def child_tracer(wire, max_spans=MAX_SPANS):
    """Build a worker-side tracer joined to a parent trace.

    ``wire`` is a :class:`TraceContext` or its ``to_wire()`` dict (or
    None, returning None so callers can write
    ``tracer = child_tracer(spec.get("trace"))`` unconditionally).
    """
    ctx = TraceContext.from_wire(wire)
    if ctx is None:
        return None
    return Tracer(
        max_spans=max_spans,
        trace_id=ctx.trace_id,
        parent_span_id=ctx.parent_span_id,
    )


def flush_env_tracer():
    """Write the env-installed tracer's spans to ``REPRO_TRACE_OUT``.

    A no-op unless tracing was enabled through the environment and an
    output path was given.  Called by the CLI main on exit so plain
    ``REPRO_TRACE=1 REPRO_TRACE_OUT=t.jsonl repro run ...`` works
    without any flag.
    """
    out = settings.get("REPRO_TRACE_OUT")
    tracer = _TRACER
    if (not settings.get("REPRO_TRACE") or not out or tracer is None
            or not tracer.spans):
        return None
    from repro.obs.export import write_trace_jsonl

    return write_trace_jsonl(tracer, out)


if settings.get("REPRO_TRACE"):  # pragma: no cover - exercised via subprocess
    _TRACER = Tracer()
