"""The concurrent discovery service.

Everything below :mod:`repro.serve` turns the batch/CLI reproduction
into a long-running server answering a stream of discovery requests
(ROADMAP item 1 — the "millions of users" axis):

* :mod:`repro.serve.protocol` — the HTTP/JSON wire protocol and
  request validation;
* :mod:`repro.serve.surfaces` — the concurrent ESS surface tier:
  single-flight builds into the archive keyed by content fingerprint,
  bounded LRU eviction by the surfaces' array bytes;
* :mod:`repro.serve.worker` — the process-pool back-end: builds and
  discovery runs executed in pool workers with cooperative
  cancellation and per-task metrics shipping;
* :mod:`repro.serve.server` — the asyncio front-end: admission
  control, per-tenant quotas, budget-kill cancellation, graceful
  drain, and the ``/metrics`` Prometheus endpoint;
* :mod:`repro.serve.loadgen` — the closed-loop load generator behind
  ``repro loadgen``, and the in-process server harness the tests use.

See ``docs/serving.md`` for the protocol, knobs and metrics catalogue.
"""

from repro.serve.server import DiscoveryServer, ServeConfig  # noqa: F401
