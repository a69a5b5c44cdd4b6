"""The constructive Theorem 4.6 adversarial workload family.

Paper Theorem 4.6: no deterministic selectivity-discovery algorithm
that relies on half-space pruning can guarantee ``MSO < D``.  The
proof is constructive, and this module builds that construction as a
synthetic ESS the unchanged discovery algorithms run on directly:

* the optimal cost is **flat** — ``C`` everywhere — so the contour
  ladder collapses to a single contour of budget ``C`` and the oracle
  pays exactly ``C`` at every location;
* there are ``D`` plans; plan ``p``'s epp total order is the rotation
  ``(p, p+1, ..., p+D-1 mod D)``, and the optimal plan at a location is
  ``sum(coords) mod D`` — every residue class appears in every grid
  slice, so each dimension has spillers at the extreme coordinate;
* every plan's full cost and every spill-subtree cost curve is flat at
  ``C``: a spill probe always *completes* (learning exactly one epp)
  and always charges the full contour cost ``C``.

Each budgeted execution therefore reveals exactly one half-space
(one epp) at price ``C``, and nothing executed before the last epp is
known can finish cheaper: any half-space-pruning algorithm pays
``(D-1) * C`` in probes plus ``C`` for the final plan, against an
oracle cost of ``C`` — sub-optimality exactly ``D`` at *every*
location.  SpillBound and AlignedBound land on MSO = D precisely
(within their ``D^2 + 3D`` ceilings); the family is seeded and
registered with the conformance workload registry
(``family="adversarial"`` in
:func:`repro.conformance.workloads.build_conformance_instance`) so the
monitors and sweep engines treat it like any other workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.conformance.workloads import ConformanceInstance
from repro.errors import ReproError
from repro.ess.contours import ContourSet
from repro.ess.grid import ESSGrid
from repro.ess.ocs import ESS

#: Dimensionalities the seeded family cycles through (the paper's
#: lower-bound argument is per-D; tests pin D = 2, 3, 4).
FAMILY_DIMS = (2, 3, 4)

#: Grid resolutions the seeded knob draw picks from.  Any resolution
#: >= 2 works — the construction's sub-optimality is resolution-free.
RESOLUTION_RANGE = (5, 7)

#: Base-cost range for the flat surface (the constant ``C``).
SCALE_RANGE = (50.0, 500.0)


@dataclass(frozen=True)
class AdversarialQuery:
    """The minimal query-shaped object the substrate needs."""

    name: str
    num_epps: int

    def true_location(self):
        """Center of the grid in selectivity terms is meaningless for a
        synthetic surface; report the origin."""
        return (0,) * self.num_epps


class _AdversarialPlan:
    """A synthetic plan: identity only (costs live on the surface)."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key


class AdversarialESS(ESS):
    """The Theorem 4.6 surface: flat costs, rotated spill orders.

    Overrides every method whose stock implementation would walk a real
    plan tree; everything else (contours, spill-order matrices,
    sub-optimality surfaces, the grid) is the unchanged substrate.
    """

    def __init__(self, num_dims, resolution, scale, name=None):
        num_dims = int(num_dims)
        if num_dims < 2:
            raise ReproError(
                "the adversarial construction needs D >= 2 "
                f"(got {num_dims})"
            )
        if float(scale) <= 0:
            raise ReproError("adversarial cost scale must be positive")
        grid = ESSGrid(num_dims, resolution=int(resolution))
        name = name or f"ADV_D{num_dims}_R{int(resolution)}"
        plans = [_AdversarialPlan(f"{name}:P{p}") for p in range(num_dims)]
        coord_sum = np.zeros(grid.num_points, dtype=np.int64)
        for dim in range(num_dims):
            coord_sum += grid.coord_array(dim).astype(np.int64)
        super().__init__(
            query=AdversarialQuery(name=name, num_epps=num_dims),
            grid=grid,
            cost_model=None,
            optimal_cost=np.full(grid.num_points, float(scale)),
            plan_ids=(coord_sum % num_dims).astype(np.int32),
            plans=plans,
        )
        self.scale = float(scale)
        self._flat_surface = np.full(grid.num_points, self.scale)

    def _check_plan(self, plan_id):
        if not 0 <= int(plan_id) < self.posp_size:
            raise ReproError(
                f"adversarial plan id {plan_id} outside "
                f"[0, {self.posp_size})"
            )

    def plan_cost_array(self, plan_id):
        self._check_plan(plan_id)
        return self._flat_surface

    def plan_cost_at_points(self, plan_id, flat_indices):
        self._check_plan(plan_id)
        flats = np.asarray(flat_indices, dtype=np.int64)
        return np.full(flats.shape, self.scale)

    def spill_order(self, plan_id):
        """Plan ``p`` spills ``p, p+1, ..., p+D-1 (mod D)`` in turn."""
        self._check_plan(plan_id)
        d = self.grid.num_dims
        return [(int(plan_id) + k) % d for k in range(d)]

    def spill_cost_curves(self, plan_ids, dims, coords):
        for plan_id in plan_ids:
            self._check_plan(plan_id)
        return [np.full(self.grid.resolution[dim], self.scale)
                for dim in dims]


def adversarial_knobs(seed):
    """The deterministic ``(num_dims, resolution, scale)`` draw."""
    seed = int(seed)
    rng = np.random.default_rng([0xAD5A, seed])
    num_dims = FAMILY_DIMS[seed % len(FAMILY_DIMS)]
    lo, hi = RESOLUTION_RANGE
    resolution = int(rng.integers(lo, hi + 1))
    scale = float(np.round(rng.uniform(*SCALE_RANGE), 6))
    return num_dims, resolution, scale


def build_adversarial_instance(seed=0, num_dims=None, resolution=None,
                               scale=None):
    """Build the seeded Theorem 4.6 instance.

    Explicit ``num_dims``/``resolution``/``scale`` override the
    seed-derived knobs.  The synthetic surface is always eager and
    single-contour.
    """
    seed = int(seed)
    auto_dims, auto_res, auto_scale = adversarial_knobs(seed)
    num_dims = auto_dims if num_dims is None else int(num_dims)
    resolution = auto_res if resolution is None else int(resolution)
    scale = auto_scale if scale is None else float(scale)
    ess = AdversarialESS(
        num_dims, resolution, scale,
        name=f"ADV_D{num_dims}_R{resolution}_S{seed}",
    )
    contours = ContourSet(ess, cost_ratio=2.0)
    return ConformanceInstance(
        seed=seed,
        query=ess.query,
        ess=ess,
        contours=contours,
        resolution=resolution,
        cost_ratio=contours.cost_ratio,
        cost_noise=0.0,
    )
