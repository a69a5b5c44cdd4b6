"""The metrics registry: counters, gauges, histograms, phase timings.

One process-global :data:`REGISTRY` absorbs everything the repo used to
scatter across ad-hoc counters: the phase profile (ESS builds,
contours, sweeps), run-level discovery
semantics (contours crossed, spill executions per epp, budget-kill
charges, learned-bound updates), infrastructure counters (ESS cache
hits/misses, engine fallbacks, worker fan-out), and anything future
subsystems report.  The registry stores plain data only — rendering
(Prometheus text exposition, JSON) lives in :mod:`repro.obs.export`.

Design constraints:

* **cheap** — a counter bump is one dict update, so instrumentation can
  stay enabled unconditionally;
* **mergeable** — :meth:`MetricsRegistry.merge` folds a plain-data
  :meth:`~MetricsRegistry.summary` from another process into this one,
  which is how multiprocess sweep workers report their phase timings
  and counters back to the parent (see :mod:`repro.perf.parallel`);
* **label-aware** — every instrument takes an optional ``labels`` dict;
  labelled series are stored per label-set and exported as proper
  Prometheus labels;
* **thread-safe** — every instrument, read accessor, and ``merge()``
  holds the registry lock for the whole mutation, so concurrent
  writers (the serving layer's single-flight coalescing and its
  pool-result merges run on multiple threads) never lose updates or
  observe a half-merged histogram.  :class:`Histogram` instances are
  *not* independently thread-safe; they are only ever touched under
  their owning registry's lock.  See ``docs/observability.md``.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

#: Default histogram buckets: log-ish spacing wide enough for both
#: sub-optimality ratios (1..few hundred) and charge magnitudes.
DEFAULT_BUCKETS = (
    0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0,
    10_000.0, 100_000.0, 1_000_000.0, 10_000_000.0, 100_000_000.0,
    1_000_000_000.0,
)


def _series_key(name, labels):
    """Canonical storage key for a series.

    Labels are sorted by key so insertion order never creates distinct
    series, and a brace-flattened name (``spills{epp=e1}`` — the form
    :func:`_flat_name` produces and ``merge()`` round-trips) is parsed
    back into (name, labels) rather than treated as an opaque metric
    family.  Both normalizations matter for exposition determinism:
    two processes that built the same logical series in different
    orders must render byte-identical scrapes after ``merge()``.
    """
    if "{" in name:
        base, embedded = _unflatten(name)
        if embedded:
            merged = dict(embedded)
            if labels:
                merged.update(labels)
            name, labels = base, merged
    if not labels:
        return (name, ())
    return (name, tuple(sorted((str(k), str(v)) for k, v in labels.items())))


class Histogram:
    """Fixed-bucket cumulative histogram (Prometheus semantics).

    ``counts[i]`` counts observations ``<= buckets[i]``; observations
    beyond the last bucket land only in the implicit ``+Inf`` bucket
    (``count`` minus the last cumulative entry).
    """

    __slots__ = ("buckets", "counts", "total", "count", "exemplar")

    def __init__(self, buckets=DEFAULT_BUCKETS):
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * len(self.buckets)
        self.total = 0.0
        self.count = 0
        #: Most recent exemplar: ``{"labels": {...}, "value": float,
        #: "timestamp_s": float}`` or None.  OpenMetrics-style — links
        #: one concrete observation (e.g. its ``trace_id``) to the
        #: aggregate so a scrape can jump from a latency histogram to
        #: the trace that produced an outlier.
        self.exemplar = None

    def observe(self, value, exemplar=None):
        value = float(value)
        self.total += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
        if exemplar:
            self.exemplar = {
                "labels": {str(k): str(v) for k, v in exemplar.items()},
                "value": value,
                "timestamp_s": time.time(),
            }

    def merge(self, data):
        """Fold a plain-data dump (same bucket layout) into this one."""
        if tuple(data["buckets"]) != self.buckets:
            raise ValueError(
                f"histogram bucket mismatch: {data['buckets']} vs "
                f"{self.buckets}"
            )
        for i, c in enumerate(data["counts"]):
            self.counts[i] += int(c)
        self.total += float(data["sum"])
        self.count += int(data["count"])
        incoming = data.get("exemplar")
        if incoming and (
            self.exemplar is None
            or incoming.get("timestamp_s", 0.0)
            >= self.exemplar.get("timestamp_s", 0.0)
        ):
            self.exemplar = dict(incoming)

    def dump(self):
        out = {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }
        if self.exemplar is not None:
            out["exemplar"] = dict(self.exemplar)
        return out


class MetricsRegistry:
    """Counters, gauges, histograms and phase timings in one place."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters = {}
        self._gauges = {}
        self._histograms = {}
        self._phases = {}

    # -- instruments ---------------------------------------------------

    def incr(self, name, amount=1, labels=None):
        """Bump a monotonically increasing counter."""
        key = _series_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + amount

    def counter(self, name, labels=None):
        with self._lock:
            return self._counters.get(_series_key(name, labels), 0)

    def gauge(self, name, value, labels=None):
        """Set a point-in-time value (last write wins)."""
        with self._lock:
            self._gauges[_series_key(name, labels)] = float(value)

    def gauge_value(self, name, labels=None, default=None):
        with self._lock:
            return self._gauges.get(_series_key(name, labels), default)

    def observe(self, name, value, labels=None, buckets=None, exemplar=None):
        """Record one observation into a fixed-bucket histogram.

        The bucket layout is fixed by the series' first observation;
        later ``buckets`` arguments for the same series are ignored.
        ``exemplar`` optionally attaches a label dict (e.g.
        ``{"trace_id": ...}``) linking this concrete observation to a
        trace; the series keeps the most recent one.
        """
        key = _series_key(name, labels)
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = Histogram(buckets or DEFAULT_BUCKETS)
                self._histograms[key] = hist
            hist.observe(value, exemplar=exemplar)

    def record_phase(self, name, seconds):
        """Add an externally measured duration to a named phase."""
        with self._lock:
            total, count = self._phases.get(name, (0.0, 0))
            self._phases[name] = (total + float(seconds), count + 1)

    @contextmanager
    def phase(self, name):
        """Time a block into a named phase (wall clock, accumulating)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record_phase(name, time.perf_counter() - start)

    # -- aggregation ---------------------------------------------------

    def reset(self):
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._phases.clear()

    def summary(self):
        """Plain-data dump of everything in the registry.

        The ``phases``/``counters`` sections have a fixed shape
        (label-free counters are flattened to their bare name) that
        worker processes ship home for :meth:`merge`; labelled
        counters, gauges and histograms ride along in their own
        sections.
        """
        with self._lock:
            counters = {}
            for (name, labels), value in self._counters.items():
                counters[_flat_name(name, labels)] = value
            gauges = {
                _flat_name(name, labels): value
                for (name, labels), value in self._gauges.items()
            }
            histograms = {
                _flat_name(name, labels): hist.dump()
                for (name, labels), hist in self._histograms.items()
            }
            return {
                "phases": {
                    name: {"total_s": total, "count": count}
                    for name, (total, count) in sorted(self._phases.items())
                },
                "counters": dict(sorted(counters.items())),
                "gauges": dict(sorted(gauges.items())),
                "histograms": dict(sorted(histograms.items())),
            }

    def merge(self, summary):
        """Fold another registry's :meth:`summary` into this one.

        Counters and phase totals add; histograms add bucket counts;
        gauges take the incoming value (last write wins, same as a
        local :meth:`gauge` call).  This is the worker-to-parent path
        for multiprocess sweeps: workers ship their summary home and
        nothing they measured is dropped.
        """
        for name, entry in summary.get("phases", {}).items():
            with self._lock:
                total, count = self._phases.get(name, (0.0, 0))
                self._phases[name] = (
                    total + float(entry["total_s"]),
                    count + int(entry["count"]),
                )
        for flat, value in summary.get("counters", {}).items():
            name, labels = _unflatten(flat)
            self.incr(name, value, labels=labels)
        for flat, value in summary.get("gauges", {}).items():
            name, labels = _unflatten(flat)
            self.gauge(name, value, labels=labels)
        for flat, dump in summary.get("histograms", {}).items():
            name, labels = _unflatten(flat)
            key = _series_key(name, labels)
            # The bucket-count merge must happen under the lock too: a
            # concurrent observe() on the same series mutates the same
            # count list, and interleaved read-modify-writes lose bumps.
            with self._lock:
                hist = self._histograms.get(key)
                if hist is None:
                    hist = Histogram(dump["buckets"])
                    self._histograms[key] = hist
                hist.merge(dump)

    # -- raw access for exporters -------------------------------------

    def series(self):
        """Snapshot of raw series for exporters: ``(counters, gauges,
        histograms, phases)`` with ``(name, label_pairs)`` keys."""
        with self._lock:
            return (
                dict(self._counters),
                dict(self._gauges),
                {key: hist.dump() for key, hist in self._histograms.items()},
                dict(self._phases),
            )


def _flat_name(name, labels):
    """Flatten a labelled series to one string key for summaries.

    ``("spills", (("epp","e1"),))`` becomes ``spills{epp=e1}`` — the
    same bracketed convention the conformance monitor counters already
    use — and round-trips through :func:`_unflatten` for merges.
    """
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def _unflatten(flat):
    if not flat.endswith("}") or "{" not in flat:
        return flat, None
    name, _, inner = flat.partition("{")
    labels = {}
    for part in inner[:-1].split(","):
        if not part:
            continue
        key, _, value = part.partition("=")
        labels[key] = value
    return name, labels or None


#: The process-global registry every instrumented module reports into.
REGISTRY = MetricsRegistry()
