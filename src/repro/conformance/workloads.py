"""Seeded randomized workload instances for the conformance suite.

Every instance is derived deterministically from a single integer seed:
the query (schema, join tree, epp marking) comes from
:func:`repro.bench.randgen.random_workload`, and the discovery knobs —
grid resolution, contour cost ratio, and cost-function shape (a
constant-level perturbation of the default cost model) — are drawn from
a seed-keyed generator.  Together the knobs vary dimensionality (2-4
epps), resolution, cost-function shape and, through all of those, the
alignment degree of the resulting contours (reported per workload by
the suite via :func:`~repro.core.aligned_bound.contour_alignment_stats`).

Cost-model perturbations use
:meth:`~repro.optimizer.cost_model.CostModel.with_noise`, which scales
the model's *constants* (never per-location costs), so the perturbed
surface still satisfies the Plan Cost Monotonicity the guarantees rest
on, and its fingerprint keys distinct persistent-cache archives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import settings
from repro.bench.randgen import random_workload
from repro.ess.grid import ESSGrid
from repro.ess.lazy import LazyESS, contours_for
from repro.ess.persistence import ess_cache_key
from repro.obs.metrics import REGISTRY
from repro.optimizer.cost_model import DEFAULT_COST_MODEL
from repro.perf import cache as ess_cache

#: Per-dimensionality (lo, hi) grid resolution ranges.  Small enough to
#: keep a 200-workload suite in the minutes range, large enough that
#: every algorithm crosses several contours.
RESOLUTION_RANGES = {2: (7, 10), 3: (5, 7), 4: (4, 5)}

#: Contour cost ratios the knob generator draws from (the paper's
#: default doubling plus the Section 4.2 alternatives).
COST_RATIOS = (1.8, 2.0, 2.5)

#: Cost-model noise deltas (0 twice: half the workloads keep the stock
#: model, the rest perturb its constants by up to 5% / 15%).
COST_NOISES = (0.0, 0.0, 0.05, 0.15)

#: Randomized queries draw 2..4 epps (one more than the fuzz tests'
#: default, so the suite also covers D=4).
MAX_EPPS = 4

#: Workload families the registry knows how to build.  ``"random"`` is
#: the seeded randomized generator below; ``"adversarial"`` routes to
#: the constructive Theorem 4.6 lower-bound family
#: (:mod:`repro.arena.adversarial`).
WORKLOAD_FAMILIES = ("random", "adversarial")

#: In-process instance memo (mirrors bench.workloads._CACHE).
_CACHE = {}


@dataclass
class ConformanceInstance:
    """One seeded workload with its built discovery machinery."""

    seed: int
    query: object
    ess: object
    contours: object
    resolution: int
    cost_ratio: float
    cost_noise: float

    @property
    def num_epps(self):
        return self.query.num_epps

    @property
    def name(self):
        return self.query.name


def knobs_for(seed, num_epps):
    """The deterministic (resolution, cost_ratio, cost_noise) draw."""
    rng = np.random.default_rng([0xC0F0, int(seed)])
    lo, hi = RESOLUTION_RANGES.get(num_epps, (4, 5))
    resolution = int(rng.integers(lo, hi + 1))
    cost_ratio = float(rng.choice(COST_RATIOS))
    cost_noise = float(rng.choice(COST_NOISES))
    return resolution, cost_ratio, cost_noise


def build_conformance_instance(seed, use_cache=True, ess_mode=None,
                               family="random"):
    """Build (or fetch) the conformance instance for a seed.

    Args:
        seed: workload seed (also seeds the knob draw and cost noise).
        use_cache: consult/populate the persistent ESS archive cache.
        ess_mode: ``"eager"``/``"lazy"`` surface construction; default
            from ``REPRO_ESS``.
        family: workload family (one of :data:`WORKLOAD_FAMILIES`);
            ``"adversarial"`` builds the constructive Theorem 4.6
            lower-bound instance instead of a randomized one.
    """
    seed = int(seed)
    if family not in WORKLOAD_FAMILIES:
        from repro.errors import ReproError

        raise ReproError(
            f"unknown workload family {family!r}; "
            f"choose from {WORKLOAD_FAMILIES}"
        )
    if family == "adversarial":
        # Lazy import: the adversarial module imports ConformanceInstance
        # from here at module scope.
        from repro.arena.adversarial import build_adversarial_instance

        return build_adversarial_instance(seed)
    ess_mode = settings.get("REPRO_ESS", ess_mode)
    key = (seed, ess_mode)
    cached = _CACHE.get(key)
    if cached is not None:
        REGISTRY.incr("conformance_memory_hit")
        return cached
    query = random_workload(seed, max_epps=MAX_EPPS)
    resolution, cost_ratio, cost_noise = knobs_for(seed, query.num_epps)

    if cost_noise:
        cost_model = DEFAULT_COST_MODEL.with_noise(cost_noise, seed=seed)
    else:
        cost_model = DEFAULT_COST_MODEL
    sel_min = [min(1e-5, pred.selectivity / 2.0) for pred in query.epps]
    grid = ESSGrid(query.num_epps, resolution=resolution, sel_min=sel_min)
    disk_key = ess_cache_key(
        query_name=query.name,
        resolution=grid.resolution,
        sel_min=sel_min,
        cost_fingerprint=cost_model.fingerprint(),
        left_deep=False,
    )
    if ess_mode == "lazy":
        # Lazy surfaces bypass the archive cache entirely (fetching one
        # would defeat the point; storing one would force a full sweep).
        with REGISTRY.phase("ess_build"):
            ess = LazyESS(query, grid, cost_model=cost_model)
    else:
        ess = ess_cache.fetch_or_build(query, grid, cost_model,
                                       disk_key if use_cache else None)
    contours = contours_for(ess, cost_ratio)
    instance = ConformanceInstance(
        seed=seed,
        query=query,
        ess=ess,
        contours=contours,
        resolution=resolution,
        cost_ratio=cost_ratio,
        cost_noise=cost_noise,
    )
    _CACHE[key] = instance
    return instance


def clear_cache():
    """Drop the in-process instance memo (cache-isolation tests)."""
    _CACHE.clear()
