"""Lazy, contour-adaptive ESS construction.

The eager :meth:`~repro.ess.ocs.ESS.build` pays ``resolution^D``
optimizer evaluations up front — exponential in the number of
error-prone predicates, and the wall blocking 5-6 epp / resolution-30
scenarios (ROADMAP item 2).  Yet the discovery algorithms only ever
consult costs at points their contour walk actually touches, so most of
that grid is wasted work.

:class:`LazyESS` keeps the eager interface (same :class:`~repro.ess.ocs.ESS`
base class, same ``optimal_cost`` / ``plan_ids`` indexing, same contour
membership through :class:`LazyContourSet`) but resolves optimizer calls
on demand, memoized per grid point:

* ``optimal_cost`` and ``plan_ids`` become array-like *views* whose
  ``__getitem__`` resolves exactly the requested flats before gathering;
  whole-array consumers (``np.asarray``, arithmetic, ``reshape``) force
  full materialization, which degrades gracefully to the eager build.
* Contour membership is located by monotone **box pruning** on the cost
  surface instead of exhaustive enumeration: Plan Cost Monotonicity
  (paper Section 2.3) makes the optimal cost non-decreasing along every
  grid axis, so a box whose low corner already exceeds a contour budget
  contains no members, a box whose high corner fits is resolved wholesale,
  and everything else splits — degenerating to per-gridline bisection on
  1-D boxes.  Locating contour ``b`` costs ``|sublevel(b)|`` resolutions
  plus ``O(surface * log resolution)`` probes, not ``resolution^D``.

**Bit-identity.**  The vectorized optimizer DP is elementwise per grid
point (per-lane float ops, strict ``<`` tie-breaking over a static
alternative order), so resolving any subset of points yields exactly the
costs and plan *choices* the full-grid sweep assigns those points; the
differential suite (``tests/test_lazy_ess.py``) asserts this bit-for-bit.
The one permitted difference is plan-*id* numbering: eager ids follow
globally sorted plan keys, lazy ids are assigned in resolution order
(sorted within each batch), so cross-surface comparisons go through plan
keys, never raw ids.

Correctness of the pruning (not of resolved values, which are always
exact) rests on PCM holding in floating point — the same assumption the
MSO guarantees themselves rest on, monitored by the PR-4 conformance
suite.

Knobs: ``REPRO_ESS=eager|lazy`` selects the default surface for
``repro run`` / ``repro check`` / workload builds (see
:mod:`repro.settings`); the ``--ess`` CLI flag overrides per command.
"""

from __future__ import annotations

import time

import numpy as np

from repro.ess.contours import ContourSet
from repro.ess.grid import ESSGrid
from repro.ess.ocs import ESS
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span as obs_span
from repro.optimizer.cost_model import DEFAULT_COST_MODEL
from repro.optimizer.optimizer import Optimizer

def contours_for(ess, cost_ratio):
    """Contours of the kind matching the surface (lazy ESS → lazy set)."""
    cls = LazyContourSet if getattr(ess, "is_lazy", False) else ContourSet
    return cls(ess, cost_ratio)


def _index_flats(index, num_points):
    """Flat indices touched by a ``__getitem__`` index, or None for all.

    Handles the access patterns the discovery algorithms actually use:
    scalars, integer ndarrays of any shape, boolean masks, and lists.
    Slices and anything unrecognized return None (materialize).
    """
    if isinstance(index, (int, np.integer)):
        flat = int(index)
        return np.asarray([flat + num_points if flat < 0 else flat],
                          dtype=np.int64)
    if isinstance(index, slice):
        return None
    arr = np.asarray(index)
    if arr.dtype == np.bool_:
        return np.flatnonzero(arr)
    if not np.issubdtype(arr.dtype, np.integer):
        return None
    flats = arr.reshape(-1).astype(np.int64, copy=False)
    if flats.size and flats.min() < 0:
        flats = np.where(flats < 0, flats + num_points, flats)
    return flats


class _LazySurfaceView:
    """Array-like view over one lazily-resolved per-point surface.

    Indexing resolves exactly the touched grid points, then gathers from
    the backing array; coercion to a real ndarray (``np.asarray``,
    arithmetic, ``reshape``) resolves the whole grid.  ``bounds``, when
    given, names the (argmin, argmax) corner flats under PCM so
    ``min()``/``max()`` resolve two points instead of the grid.
    """

    def __init__(self, ess, backing, bounds=None):
        self._ess = ess
        self._backing = backing
        self._bounds = bounds

    @property
    def shape(self):
        return self._backing.shape

    @property
    def dtype(self):
        return self._backing.dtype

    @property
    def size(self):
        return self._backing.size

    def __len__(self):
        return len(self._backing)

    def __getitem__(self, index):
        flats = _index_flats(index, self._ess.grid.num_points)
        if flats is None:
            self._ess.resolve_all()
        else:
            self._ess.resolve(flats)
        return self._backing[index]

    def __array__(self, dtype=None, copy=None):
        self._ess.resolve_all()
        arr = self._backing
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        return arr

    def reshape(self, *shape):
        return np.asarray(self).reshape(*shape)

    def astype(self, dtype, **kwargs):
        self._ess.resolve_all()
        return self._backing.astype(dtype, **kwargs)

    def copy(self):
        return np.asarray(self).copy()

    def min(self):
        if self._bounds is not None:
            lo = self._bounds[0]
            self._ess.resolve([lo])
            return self._backing[lo]
        return np.asarray(self).min()

    def max(self):
        if self._bounds is not None:
            hi = self._bounds[1]
            self._ess.resolve([hi])
            return self._backing[hi]
        return np.asarray(self).max()

    # Comparisons and arithmetic force materialization; numpy coerces
    # the view through __array__ for the reflected (ndarray-first) side.
    def __eq__(self, other):
        return np.asarray(self) == other

    def __ne__(self, other):
        return np.asarray(self) != other

    __hash__ = None

    def __lt__(self, other):
        return np.asarray(self) < other

    def __le__(self, other):
        return np.asarray(self) <= other

    def __gt__(self, other):
        return np.asarray(self) > other

    def __ge__(self, other):
        return np.asarray(self) >= other

    def __add__(self, other):
        return np.asarray(self) + other

    __radd__ = __add__

    def __sub__(self, other):
        return np.asarray(self) - other

    def __rsub__(self, other):
        return other - np.asarray(self)

    def __mul__(self, other):
        return np.asarray(self) * other

    __rmul__ = __mul__

    def __truediv__(self, other):
        return np.asarray(self) / other

    def __rtruediv__(self, other):
        return other / np.asarray(self)

    def __repr__(self):
        resolved = self._ess.num_resolved
        return (
            f"LazySurfaceView(dtype={self._backing.dtype}, "
            f"resolved={resolved}/{self._backing.size})"
        )


class LazyESS(ESS):
    """An :class:`~repro.ess.ocs.ESS` that resolves points on demand.

    Construction costs two optimizer calls (origin and terminus — the
    PCM extremes that define ``C_min``/``C_max`` and the contour
    budgets); everything else resolves when a consumer first touches it.
    ``plans`` / ``plan_keys`` grow append-only as resolution discovers
    new POSP members, so plan ids are stable once assigned.
    """

    is_lazy = True

    def __init__(self, query, grid=None, cost_model=DEFAULT_COST_MODEL,
                 resolution=None, left_deep=False):
        if grid is None:
            grid = ESSGrid(query.num_epps, resolution=resolution)
        n = grid.num_points
        self._costs = np.full(n, np.nan, dtype=float)
        self._pids = np.full(n, -1, dtype=np.int32)
        self._resolved_mask = np.zeros(n, dtype=bool)
        self._plan_index = {}
        #: Plan-tree nodes shared by every resolve of this surface.
        self._plan_nodes = {}
        self._optimizer = Optimizer(query, cost_model, left_deep=left_deep)
        origin = grid.flat_index(grid.origin)
        terminus = grid.flat_index(grid.terminus)
        super().__init__(
            query=query,
            grid=grid,
            cost_model=cost_model,
            optimal_cost=None,
            plan_ids=None,
            plans=[],
        )
        self.optimal_cost = _LazySurfaceView(
            self, self._costs, bounds=(origin, terminus)
        )
        self.plan_ids = _LazySurfaceView(self, self._pids)
        self.resolve([origin, terminus])

    @classmethod
    def build(cls, query, grid=None, cost_model=DEFAULT_COST_MODEL,
              resolution=None, left_deep=False):
        """Drop-in for :meth:`ESS.build` — no sweep, just the corners."""
        return cls(query, grid=grid, cost_model=cost_model,
                   resolution=resolution, left_deep=left_deep)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------

    @property
    def num_resolved(self):
        """Grid points whose optimal plan/cost have been resolved."""
        return int(self._resolved_mask.sum())

    def resolve(self, flats):
        """Ensure every flat index in ``flats`` is resolved.

        Missing points are evaluated in one vectorized optimizer sweep
        restricted to those points — bit-identical per point to the
        full-grid sweep because the DP is elementwise.  Returns the
        number of newly resolved points.
        """
        flats = np.atleast_1d(np.asarray(flats, dtype=np.int64)).reshape(-1)
        if flats.size == 0:
            return 0
        missing = flats[~self._resolved_mask[flats]]
        if missing.size == 0:
            return 0
        missing = np.unique(missing)
        grid = self.grid
        with REGISTRY.phase("ess_lazy_resolve"):
            with obs_span("ess.lazy.resolve",
                          points=int(missing.size)) as span:
                began = time.perf_counter()
                result = self._optimizer.optimize(
                    grid.environment_at(missing), num_points=missing.size
                )
                span.set_attr("optimize_s", time.perf_counter() - began)
                groups, roots = result.plans(self._plan_nodes)
        index = self._plan_index
        fresh = {root.key: root for root in roots if root.key not in index}
        if fresh:
            for key in sorted(fresh):
                index[key] = len(self.plans)
                self.plans.append(fresh[key])
                self.plan_keys.append(key)
            # POSP grew: the (|POSP|, D) spill-order matrix is stale.
            self._spill_order_matrix = None
        self._costs[missing] = np.asarray(result.optimal_cost, dtype=float)
        self._pids[missing] = np.array(
            [index[root.key] for root in roots], dtype=np.int32
        )[groups]
        self._resolved_mask[missing] = True
        self.optimizer_calls += int(missing.size)
        REGISTRY.incr("ess_optimizer_calls", int(missing.size))
        REGISTRY.incr("ess_lazy_resolves")
        return int(missing.size)

    def resolve_all(self):
        """Materialize the remaining grid (the eager-equivalent state)."""
        if self._resolved_mask.all():
            return 0
        with obs_span("ess.lazy.materialize",
                      points=int((~self._resolved_mask).sum())):
            return self.resolve(np.flatnonzero(~self._resolved_mask))

    def optimal_cost_at(self, flats):
        """Optimal costs at an array of flats (resolving as needed)."""
        flats = np.asarray(flats, dtype=np.int64)
        self.resolve(flats)
        return self._costs[flats].astype(float, copy=True)

    def __repr__(self):
        return (
            f"LazyESS({self.query.name!r}, grid={self.grid.shape}, "
            f"resolved={self.num_resolved}/{self.grid.num_points}, "
            f"|POSP|>={self.posp_size})"
        )


class _LazyBandView:
    """On-demand contour-band assignment over a :class:`LazyESS`.

    ``band[flats]`` resolves the touched points and applies the shared
    :meth:`~repro.ess.contours.ContourSet.band_of_costs` formula, so
    every value is bit-identical to the eager precomputed band array.
    """

    def __init__(self, contours):
        self._contours = contours

    @property
    def shape(self):
        return (self._contours.ess.grid.num_points,)

    @property
    def dtype(self):
        return np.dtype(np.int32)

    def __len__(self):
        return self._contours.ess.grid.num_points

    def __getitem__(self, index):
        contours = self._contours
        ess = contours.ess
        flats = _index_flats(index, ess.grid.num_points)
        if flats is None:
            return np.asarray(self)[index]
        ess.resolve(flats)
        return contours.band_of_costs(ess._costs[index])

    def __array__(self, dtype=None, copy=None):
        contours = self._contours
        contours.ess.resolve_all()
        band = contours.band_of_costs(contours.ess._costs)
        if dtype is not None:
            band = band.astype(dtype, copy=False)
        return band

    def __eq__(self, other):
        return np.asarray(self) == other

    def __ne__(self, other):
        return np.asarray(self) != other

    __hash__ = None


class LazyContourSet(ContourSet):
    """Contours over a :class:`LazyESS`, located by monotone box pruning.

    Enumerating contour ``b`` needs exactly the points of band ``b``; by
    PCM those lie in ``sublevel(b) = {q : band(q) <= b}``, whose boundary
    the box recursion finds without touching the rest of the grid:

    * low corner's band > ``b`` or high corner's band < ``b`` → no
      members inside, prune;
    * both corners' bands == ``b`` → every point is a member, resolve
      the whole box;
    * otherwise split the longest axis — 1-D boxes binary-search the
      band boundary along their gridline (per-gridline bisection).

    The recursion runs breadth-first over arrays of boxes and issues
    one optimizer call per round (:meth:`_ensure_band`), so a first
    touch costs ``O(D log resolution)`` calls per band however many
    boxes the shell breaks into.  Shells are memoized (``_bands_done``),
    so walking contours in budget order — what every discovery run
    does — pays for each once.
    """

    def _init_band(self):
        self.band = _LazyBandView(self)
        self._bands_done = set()

    def _band_members(self, band):
        self._ensure_band(band)
        ess = self.ess
        flats = np.flatnonzero(ess._resolved_mask)
        bands = self.band_of_costs(ess._costs[flats])
        return flats[bands == band].astype(np.int64)

    def _ensure_band(self, target):
        """Resolve every grid point whose band equals ``target``.

        The recursion keeps only boxes that can intersect the band's
        shell: a box wholly above (low corner's band > ``target``) or
        wholly below (high corner's band < ``target``) is pruned without
        resolving its interior, so enumerating one band never pays for
        the sublevel volume beneath it.

        A round handles every live box at once — one ``(boxes, D)``
        array per corner, one ``band_of_costs`` over all corners — and
        issues a single ``ess.resolve``: the round's corners together
        with the interiors of the boxes the previous round found wholly
        inside the band (nothing waits on those, so they ride along
        with the next call; the last ones join the bisection's spans).
        """
        if target in self._bands_done:
            return
        ess = self.ess
        grid = ess.grid
        strides = np.asarray(grid.strides, dtype=np.int64)
        resolved = []  # new points per ess.resolve call of this shell

        def resolve(*flats):
            resolved.append(ess.resolve(np.concatenate(flats)))

        with obs_span("ess.lazy.contour_shell", band=int(target)) as shell:
            lo = np.asarray([grid.origin], dtype=np.int64)
            hi = np.asarray([grid.terminus], dtype=np.int64)
            inside = []
            lines = []
            rounds = 0
            while len(lo):
                rounds += 1
                corners = np.concatenate([lo @ strides, hi @ strides])
                resolve(corners, *inside)
                band_lo, band_hi = self.band_of_costs(
                    ess._costs[corners]
                ).reshape(2, -1)
                # PCM: bands inside the box lie in [band_lo, band_hi].
                whole = (band_lo == target) & (band_hi == target)
                inside = [
                    grid.box_flats(lo[box], hi[box])
                    for box in np.flatnonzero(whole)
                ]
                live = (band_lo <= target) & (band_hi >= target) & ~whole
                lo, hi = lo[live], hi[live]
                extent = hi - lo
                # A box free along one axis only is a gridline stretch
                # straddling the band: left to the batched bisection.
                line = np.count_nonzero(extent, axis=1) == 1
                if line.any():
                    axis = extent[line].argmax(axis=1)
                    start = lo[line, axis]
                    lines.append((
                        lo[line] @ strides - start * strides[axis],
                        strides[axis], start, hi[line, axis],
                        band_lo[live][line], band_hi[live][line],
                    ))
                    lo, hi, extent = lo[~line], hi[~line], extent[~line]
                # Everything else splits its longest axis in two.
                box = np.arange(len(lo))
                axis = extent.argmax(axis=1)
                mid = (lo[box, axis] + hi[box, axis]) // 2
                hi_left = hi.copy()
                hi_left[box, axis] = mid
                lo_right = lo.copy()
                lo_right[box, axis] = mid + 1
                lo = np.concatenate([lo, lo_right])
                hi = np.concatenate([hi_left, hi])
            if lines:
                inside.extend(self._bisect_lines(
                    target, resolve, *map(np.concatenate, zip(*lines))
                ))
            if inside:
                resolve(*inside)
            shell.set_attr("rounds", rounds)
            shell.set_attr("resolve_calls", int(np.count_nonzero(resolved)))
            shell.set_attr("points", int(sum(resolved)))
        self._bands_done.add(target)

    def _bisect_lines(self, target, resolve, base, stride, start, stop,
                      band_lo, band_hi):
        """Batched per-gridline bisection of one band's two boundaries.

        Line ``i`` is the gridline stretch ``base[i] + stride[i] * k``
        for ``start[i] <= k <= stop[i]``, known to straddle the band:
        its low end's band is <= ``target`` <= its high end's band.  Two
        monotone binary searches locate the first index whose band
        reaches ``target`` and the last index not beyond it; the stretch
        between them is the band's intersection with the line (possibly
        empty when the band jumps past ``target`` on that line).  All
        lines advance one probe per round, so the optimizer sees
        ``O(log resolution)`` batched calls instead of one per line.
        Returns the intersections' flats, one array per non-empty line,
        for the caller to resolve.
        """
        costs = self.ess._costs

        def _search(predicate, tighten_low):
            """Converge (low, high) to adjacent indices; the predicate
            holds at ``high`` end iff ``tighten_low`` picks low moves."""
            low = start.copy()
            high = stop.copy()
            while True:
                gap = (high - low) > 1
                if not gap.any():
                    break
                mid = (low[gap] + high[gap]) // 2
                flats = base[gap] + mid * stride[gap]
                resolve(flats)
                hit = predicate(self.band_of_costs(costs[flats]))
                lo_new = low[gap]
                hi_new = high[gap]
                if tighten_low:
                    lo_new[hit] = mid[hit]
                    hi_new[~hit] = mid[~hit]
                else:
                    hi_new[hit] = mid[hit]
                    lo_new[~hit] = mid[~hit]
                low[gap] = lo_new
                high[gap] = hi_new
            return low, high

        # First index whose band reaches target (band(start) may already).
        _, upper = _search(lambda b: b >= target, tighten_low=False)
        first = np.where(band_lo >= target, start, upper)
        # Last index whose band has not passed target.
        lower, _ = _search(lambda b: b <= target, tighten_low=True)
        last = np.where(band_hi <= target, stop, lower)
        return [
            base[i] + stride[i] * np.arange(first[i], last[i] + 1,
                                            dtype=np.int64)
            for i in np.flatnonzero(first <= last)
        ]
