"""Live operations view of the discovery server.

Two in-process pieces, both fed by the request tail in
:meth:`repro.serve.server.DiscoveryServer.discover`:

* :class:`DashboardState` — a bounded ring buffer of per-request
  completion events (timestamp, outcome, phase timings, surface
  source, tenant, conformance violations, trace id).  ``GET
  /dashboard`` renders it with :func:`render_dashboard_html` into one
  self-contained HTML page on the existing svgfig primitives:
  throughput and rejections, p50/p99 latency by phase, cache
  hit/coalesce rate, inflight, and a table of the slowest recent
  requests with their trace ids.  Everything is computed at render
  time from the ring — no background aggregation thread, no state
  beyond the deque.

* :class:`AuditLog` — a structured slow-request JSONL log.  A request
  is written when its total latency crosses ``threshold_s`` *or* when
  it falls on the ``every``-th sample (``every=0`` disables sampling,
  keeping only slow requests).  The server configures it from
  ``--audit`` / ``REPRO_SERVE_AUDIT`` and friends (see
  :class:`repro.serve.server.ServeConfig`); ``docs/observability.md``
  has the record schema.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque

from repro.bench.svgfig import line_chart

#: Ring capacity: at the serve bench's ~35 rps this is ~2 minutes of
#: traffic; the dashboard window trims further by wall clock.
DEFAULT_CAPACITY = 4096

#: Dashboard look-back window (seconds).
DEFAULT_WINDOW_S = 300

#: Buckets drawn across the window in the time-series charts.
CHART_BUCKETS = 30

#: Schema tag on every audit record.
AUDIT_SCHEMA = "repro.serve.audit.v1"


def _percentile(values, q):
    """Nearest-rank percentile of a non-empty sorted-or-not list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, int(round(q / 100.0 * (len(ordered) - 1)))))
    return float(ordered[idx])


class DashboardState:
    """Bounded ring buffer of request completion events (thread-safe)."""

    def __init__(self, capacity=DEFAULT_CAPACITY):
        self._events = deque(maxlen=int(capacity))
        self._lock = threading.Lock()

    def record(self, **event):
        event.setdefault("ts", time.time())
        with self._lock:
            self._events.append(event)

    def snapshot(self):
        with self._lock:
            return list(self._events)


class AuditLog:
    """Append-only JSONL log of slow (and sampled) requests."""

    def __init__(self, path, threshold_s=1.0, every=0):
        self.path = str(path)
        self.threshold_s = float(threshold_s)
        self.every = int(every)
        self._seq = 0
        self._lock = threading.Lock()
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)

    def maybe_record(self, record):
        """Write ``record`` if it qualifies; returns True when written.

        Qualification: ``total_s >= threshold_s`` (marked
        ``slow: true``), or the request falls on the ``every``-th
        sample (``slow: false``).  Records are one JSON object per
        line under the ``repro.serve.audit.v1`` schema.
        """
        with self._lock:
            self._seq += 1
            slow = float(record.get("total_s", 0.0)) >= self.threshold_s
            sampled = self.every > 0 and self._seq % self.every == 0
            if not slow and not sampled:
                return False
            payload = dict(record)
            payload["schema"] = AUDIT_SCHEMA
            payload["slow"] = slow
            payload.setdefault("ts", time.time())
            line = json.dumps(payload, sort_keys=True, default=str)
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
            return True


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------


def _bucketize(events, now, window_s, buckets):
    """Split window events into ``buckets`` equal time slices."""
    step = window_s / buckets
    sliced = [[] for _ in range(buckets)]
    for event in events:
        age = now - event.get("ts", now)
        if age < 0 or age >= window_s:
            continue
        idx = buckets - 1 - int(age / step)
        if 0 <= idx < buckets:
            sliced[idx].append(event)
    return sliced, step


def _series_tables(events, now, window_s=DEFAULT_WINDOW_S,
                   buckets=CHART_BUCKETS):
    """All chart series out of one pass over the window's events."""
    sliced, step = _bucketize(events, now, window_s, buckets)
    rps, rejected, killed = [], [], []
    p50_ms, p99_ms, run_p50_ms = [], [], []
    hit_rate, coalesce_rate = [], []
    inflight, violations = [], []
    for bucket in sliced:
        done = [e for e in bucket if e.get("outcome") not in
                ("rejected", "invalid")]
        rps.append(len(done) / step)
        rejected.append(
            sum(1 for e in bucket if e.get("outcome") == "rejected") / step
        )
        killed.append(
            sum(1 for e in bucket if e.get("outcome") == "killed") / step
        )
        totals = [e.get("total_s", 0.0) for e in done]
        runs = [e.get("run_s", 0.0) for e in done]
        p50_ms.append(_percentile(totals, 50) * 1000.0)
        p99_ms.append(_percentile(totals, 99) * 1000.0)
        run_p50_ms.append(_percentile(runs, 50) * 1000.0)
        sourced = [e.get("source") for e in bucket if e.get("source")]
        eligible = [s for s in sourced if s != "none"]
        hits = sum(1 for s in eligible if s == "hit")
        coalesced = sum(1 for s in eligible if s == "coalesced")
        hit_rate.append(100.0 * hits / len(eligible) if eligible else 0.0)
        coalesce_rate.append(
            100.0 * coalesced / len(eligible) if eligible else 0.0
        )
        inflight.append(
            max((e.get("inflight", 0) for e in bucket), default=0)
        )
        violations.append(sum(e.get("violations", 0) for e in bucket))
    ago = [round(-(buckets - 1 - i) * step) for i in range(buckets)]
    return {
        "ago_s": ago,
        "rps": rps, "rejected": rejected, "killed": killed,
        "p50_ms": p50_ms, "p99_ms": p99_ms, "run_p50_ms": run_p50_ms,
        "hit_rate": hit_rate, "coalesce_rate": coalesce_rate,
        "inflight": inflight, "violations": violations,
    }


def _esc(text):
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _tile(label, value):
    return (
        f'<div class="tile"><div class="v">{_esc(value)}</div>'
        f'<div class="l">{_esc(label)}</div></div>'
    )


def _slow_table(events, limit=10):
    """The slowest completed requests in the window, slowest first."""
    done = [e for e in events if e.get("outcome") not in
            ("rejected", "invalid")]
    done.sort(key=lambda e: e.get("total_s", 0.0), reverse=True)
    rows = []
    for event in done[:limit]:
        rows.append(
            "<tr>"
            f"<td>{_esc(event.get('query', '?'))}</td>"
            f"<td>{_esc(event.get('algorithm', '?'))}</td>"
            f"<td>{_esc(event.get('tenant', '?'))}</td>"
            f"<td>{_esc(event.get('outcome', '?'))}</td>"
            f"<td>{event.get('total_s', 0.0) * 1000:.1f}</td>"
            f"<td>{event.get('run_s', 0.0) * 1000:.1f}</td>"
            f"<td>{_esc(event.get('trace_id') or '-')}</td>"
            "</tr>"
        )
    return "".join(rows)


def render_dashboard_html(state, registry, health, now=None,
                          window_s=DEFAULT_WINDOW_S,
                          title="repro serve dashboard"):
    """One self-contained HTML page of the server's recent behaviour."""
    now = time.time() if now is None else now
    events = [e for e in state.snapshot()
              if now - e.get("ts", now) < window_s]
    tables = _series_tables(events, now, window_s=window_s)

    requests_total = sum(
        value for (name, _labels), value in registry.series()[0].items()
        if name == "serve_requests"
    )
    dropped = registry.counter("trace_spans_dropped")
    surfaces = health.get("surfaces", {})
    tiles = "".join([
        _tile("status", health.get("status", "?")),
        _tile("inflight", health.get("inflight", 0)),
        _tile("workers", health.get("workers", 0)),
        _tile("uptime s", f"{health.get('uptime_s', 0.0):.0f}"),
        _tile("requests", int(requests_total)),
        _tile("window reqs", len(events)),
        _tile("violations", int(
            registry.counter("serve_conformance_violations"))),
        _tile("trace drops", int(dropped)),
        _tile("surfaces", surfaces.get("ready", 0)),
    ])

    charts = []
    if events:
        ago = tables["ago_s"]
        charts.append(line_chart(
            "throughput (req/s)", ago,
            [("served", tables["rps"]),
             ("rejected", tables["rejected"]),
             ("killed", tables["killed"])],
            x_label="seconds ago", y_label="req/s",
        ))
        charts.append(line_chart(
            "latency (ms)", ago,
            [("p50 total", tables["p50_ms"]),
             ("p99 total", tables["p99_ms"]),
             ("p50 run", tables["run_p50_ms"])],
            x_label="seconds ago", y_label="ms",
        ))
        charts.append(line_chart(
            "surface cache (%)", ago,
            [("hit rate", tables["hit_rate"]),
             ("coalesce rate", tables["coalesce_rate"])],
            x_label="seconds ago", y_label="%",
        ))
        charts.append(line_chart(
            "inflight / violations", ago,
            [("inflight", [float(v) for v in tables["inflight"]]),
             ("violations", [float(v) for v in tables["violations"]])],
            x_label="seconds ago", y_label="count",
        ))
    body_charts = "\n".join(charts) if charts else (
        "<p>no requests in the window yet — send traffic to "
        "<code>POST /v1/discover</code>.</p>"
    )

    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="5">
<title>{_esc(title)}</title>
<style>
body {{ font-family: -apple-system, 'Segoe UI', Helvetica, Arial,
        sans-serif; margin: 24px; color: #0b0b0b; background: #fcfcfb; }}
.tiles {{ display: flex; flex-wrap: wrap; gap: 12px; margin: 16px 0; }}
.tile {{ border: 1px solid #e7e6e2; border-radius: 8px;
         padding: 10px 18px; background: #fff; min-width: 90px; }}
.tile .v {{ font-size: 22px; font-weight: 600; }}
.tile .l {{ font-size: 11px; color: #666; text-transform: uppercase; }}
table {{ border-collapse: collapse; margin-top: 18px; font-size: 13px; }}
th, td {{ border: 1px solid #e7e6e2; padding: 4px 10px;
          text-align: left; }}
th {{ background: #f3f2ef; }}
caption {{ text-align: left; font-weight: 600; padding: 6px 0; }}
svg {{ margin: 12px 0; }}
</style>
</head>
<body>
<h1>{_esc(title)}</h1>
<p>window {window_s:.0f} s · rendered {time.strftime('%Y-%m-%d %H:%M:%S',
                                                     time.localtime(now))}
· auto-refreshes every 5 s</p>
<div class="tiles">{tiles}</div>
{body_charts}
<table><caption>slowest requests in window</caption>
<tr><th>query</th><th>algo</th><th>tenant</th><th>outcome</th>
<th>total ms</th><th>run ms</th><th>trace id</th></tr>
{_slow_table(events)}
</table>
</body>
</html>
"""
