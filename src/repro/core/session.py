"""A deployment session: the paper's Section 7 workflow, assembled.

:class:`RobustSession` is the piece a database integration would
actually host.  For each *canned query* it:

1. builds (or loads from its on-disk cache) the ESS and contours —
   the offline preprocessing §7 recommends;
2. asks the :class:`~repro.core.advisor.RobustnessAdvisor` whether the
   native optimizer is safe for the anticipated estimation-error radius
   or robust discovery should run;
3. executes accordingly (simulated or, given a data provider, on the
   real engine), and
4. records the discovered selectivities into a **query-log feedback
   store**, which sharpens both subsequent epp recommendations and the
   error-radius estimate — discovery pays for itself across a workload.

The session is deliberately stateful-but-transparent: everything it
learns is inspectable (``feedback``, ``decisions``), and its cache is
the persistent ESS cache (:mod:`repro.perf.cache`) pointed at its own
directory, keyed by the build's content like every other archive.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.advisor import RobustnessAdvisor
from repro.core.aligned_bound import AlignedBound
from repro.core.native import NativeOptimizer
from repro.core.spill_bound import SpillBound
from repro.errors import DiscoveryError
from repro.ess.contours import ContourSet
from repro.ess.grid import ESSGrid
from repro.ess.persistence import ess_cache_key
from repro.optimizer.cost_model import DEFAULT_COST_MODEL
from repro.perf.cache import fetch_or_build

_ALGORITHMS = {"sb": SpillBound, "ab": AlignedBound}


@dataclass
class SessionDecision:
    """One routed query execution and its outcome."""

    query_name: str
    route: str                 # "native" | "sb" | "ab"
    reason: str
    suboptimality: float
    total_cost: float
    learned: dict = field(default_factory=dict)


class RobustSession:
    """Route queries between the native optimizer and robust discovery.

    Args:
        cache_dir: directory for persisted ESS archives (``None``
            disables persistence).
        algorithm: which discovery algorithm to route to ("sb" or "ab").
        error_radius: anticipated multiplicative estimation error used
            by the advisor until query-log feedback refines it.
        resolution: ESS grid resolution per dimension.
    """

    def __init__(self, cache_dir=None, algorithm="ab", error_radius=10.0,
                 resolution=None):
        if algorithm not in _ALGORITHMS:
            raise DiscoveryError(f"unknown algorithm {algorithm!r}")
        self.cache_dir = pathlib.Path(cache_dir) if cache_dir else None
        if self.cache_dir:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.algorithm = algorithm
        self.base_error_radius = float(error_radius)
        self.resolution = resolution
        self._instances = {}
        #: predicate name -> list of observed selectivities (query log).
        self.feedback = {}
        #: chronological routing record.
        self.decisions = []

    # ------------------------------------------------------------------
    # Preparation (offline per canned query)
    # ------------------------------------------------------------------

    def prepare(self, query):
        """Build or load the query's ESS + contours (cached)."""
        cached = self._instances.get(query.name)
        if cached is not None:
            return cached
        sel_min = [min(1e-5, p.selectivity / 3.0) for p in query.epps]
        grid = ESSGrid(query.num_epps, resolution=self.resolution,
                       sel_min=sel_min)
        key = (ess_cache_key(query.name, grid.resolution, sel_min,
                             DEFAULT_COST_MODEL.fingerprint())
               if self.cache_dir else None)
        ess = fetch_or_build(query, grid, key=key, directory=self.cache_dir)
        bundle = {
            "ess": ess,
            "contours": ContourSet(ess),
            "advisor": RobustnessAdvisor(ess),
        }
        bundle["discovery"] = _ALGORITHMS[self.algorithm](
            ess, bundle["contours"]
        )
        self._instances[query.name] = bundle
        return bundle

    # ------------------------------------------------------------------
    # Query-log feedback
    # ------------------------------------------------------------------

    def record_feedback(self, predicate_name, observed_selectivity):
        self.feedback.setdefault(predicate_name, []).append(
            float(observed_selectivity)
        )

    def error_radius_for(self, query, estimate_sels):
        """Anticipated error radius, sharpened by the query log.

        With history for a predicate, the radius is the worst observed
        estimate/actual log-ratio (plus slack); without history, the
        session default.
        """
        radius = 0.0
        seen_any = False
        for pred, estimate in zip(query.epps, estimate_sels):
            history = self.feedback.get(pred.name)
            if not history:
                continue
            seen_any = True
            for observed in history:
                ratio = max(observed / estimate, estimate / max(observed, 1e-300))
                radius = max(radius, ratio)
        if not seen_any:
            return self.base_error_radius
        return max(radius * 2.0, 2.0)  # slack: errors repeat and grow

    # ------------------------------------------------------------------
    # Routing and execution
    # ------------------------------------------------------------------

    def execute(self, query, qa=None, catalog=None):
        """Route and (simulated-)execute one query instance.

        Args:
            query: the canned :class:`SPJQuery`.
            qa: actual selectivities (defaults to the query's declared
                true location).
            catalog: statistics for the native estimate (defaults to
                the grid origin — the optimistic estimate).

        Returns a :class:`SessionDecision`; the discovered selectivities
        are folded into the query-log feedback automatically.
        """
        bundle = self.prepare(query)
        ess = bundle["ess"]
        grid = ess.grid
        native = NativeOptimizer(ess)
        qe = (native.estimate_location(catalog) if catalog is not None
              else grid.origin)
        estimate_sels = [grid.selectivity(d, c) for d, c in enumerate(qe)]
        radius = self.error_radius_for(query, estimate_sels)
        advice = bundle["advisor"].advise(qe, radius)

        location = qa if qa is not None else query.true_location()
        if advice.use_robust:
            result = bundle["discovery"].run(location, trace=True)
            route = self.algorithm
            learned = {
                query.epps[r.spill_dim].name: r.learned_selectivity
                for r in result.executions
                if r.mode == "spill" and r.completed
            }
            for name, sel in learned.items():
                self.record_feedback(name, sel)
        else:
            result = native.run(location, qe=qe)
            route = "native"
            learned = {}
            # Even a native run yields feedback: the observed actual
            # location (a deployed engine monitors cardinalities).
            coords, _ = (result.qa_coords, None)
            for dim, pred in enumerate(query.epps):
                self.record_feedback(
                    pred.name, grid.selectivity(dim, coords[dim])
                )
        decision = SessionDecision(
            query_name=query.name,
            route=route,
            reason=advice.reason,
            suboptimality=result.suboptimality,
            total_cost=result.total_cost,
            learned=learned,
        )
        self.decisions.append(decision)
        return decision

    def summary(self):
        """Aggregate session behaviour: routes taken, mean sub-optimality."""
        if not self.decisions:
            return {"queries": 0}
        subopts = [d.suboptimality for d in self.decisions]
        routes = {}
        for decision in self.decisions:
            routes[decision.route] = routes.get(decision.route, 0) + 1
        return {
            "queries": len(self.decisions),
            "routes": routes,
            "mean_suboptimality": float(np.mean(subopts)),
            "worst_suboptimality": float(np.max(subopts)),
            "feedback_predicates": len(self.feedback),
        }
