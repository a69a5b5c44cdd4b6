"""Performance layer: sweep engines, persistent ESS cache.

Three coordinated pieces (see ``docs/performance.md``; phase timings and
counters live in :data:`repro.obs.metrics.REGISTRY`):

* :mod:`repro.perf.batch` — frontier-batched discovery simulation: the
  exhaustive sweep visits each discovery state once and partitions
  location *sets* with vectorized comparisons, bit-identical to the
  per-location loop; preferred by
  :func:`repro.core.mso.evaluate_algorithm` whenever it covers the
  algorithm;
* :mod:`repro.perf.parallel` — multiprocess exhaustive-sweep engine
  (``REPRO_WORKERS``) with a fan-out cost guard; workers chunk the
  location set and propagate each chunk through the shared state
  machine;
* :mod:`repro.perf.cache` — persistent content-keyed ESS archive cache
  (``REPRO_CACHE_DIR`` / ``REPRO_CACHE``, see :mod:`repro.settings`),
  wired into
  :func:`repro.bench.workloads.load`.
"""

from repro.perf.batch import batched_suboptimality
from repro.perf.cache import archive_path
from repro.perf.parallel import (
    SweepSpec,
    fanout_decision,
    parallel_suboptimality,
    spec_for,
    worker_count,
)

__all__ = [
    "SweepSpec",
    "archive_path",
    "batched_suboptimality",
    "fanout_decision",
    "parallel_suboptimality",
    "spec_for",
    "worker_count",
]
