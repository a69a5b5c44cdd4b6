"""Unified observability: span tracing, metrics, exporters, viewer.

Layering (no cycles):

* :mod:`repro.obs.trace` / :mod:`repro.obs.metrics` — pure stdlib,
  importable from anywhere (including multiprocess sweep workers);
* :mod:`repro.obs.export` — JSONL traces + Prometheus text exposition;
* :mod:`repro.obs.runtrace` — discovery-run records → spans + metrics;
* :mod:`repro.obs.waterfall` — the budget-waterfall HTML/SVG viewer.

Tracing is off by default (``REPRO_TRACE=0``); the metrics registry is
always on (counter bumps are one dict update).  See
``docs/observability.md`` for the catalog.
"""

from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.trace import (
    TraceContext,
    Tracer,
    active_tracer,
    child_tracer,
    current_context,
    install_tracer,
    span,
)

__all__ = [
    "REGISTRY",
    "MetricsRegistry",
    "TraceContext",
    "Tracer",
    "active_tracer",
    "child_tracer",
    "current_context",
    "install_tracer",
    "span",
]
