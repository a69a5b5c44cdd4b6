"""Head-to-head arena sweeps: every algorithm, shared workloads.

The arena runs the paper's guaranteed algorithms (PlanBouquet,
SpillBound, AlignedBound) and the fixed-plan rivals of
:mod:`repro.arena.rivals` over the *same* seeded workload set — built
through the unchanged conformance workload registry — and reports MSO
and ASO per algorithm per workload.  Every sweep and worst-location
run is handed to a :class:`ConformanceMonitor`, so each stock
algorithm is checked against its guarantee while the rivals (which
have none) are exempt;
the report carries the violation count so "0 violations" is an
asserted output, not an assumption.

The per-workload ``(aso, mso)`` pairs feed the MSO-vs-ASO scatter
(:func:`repro.bench.svgfig.scatter_chart`): the paper's robustness
story in one picture — the guaranteed algorithms cluster under their
bound lines while the rivals' MSO spreads unboundedly to the right
even when their ASO looks competitive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arena.profiles import as_profile
from repro.arena.rivals import RIVAL_FACTORIES
from repro.conformance.monitors import ConformanceMonitor
from repro.conformance.workloads import (
    WORKLOAD_FAMILIES,
    build_conformance_instance,
)
from repro.core.aligned_bound import AlignedBound
from repro.core.mso import evaluate_algorithm
from repro.core.plan_bouquet import PlanBouquet
from repro.core.spill_bound import SpillBound
from repro.errors import ReproError

#: The default arena lineup: the three guaranteed algorithms plus the
#: three rivals.  Order is presentation order (tables, scatter legend).
ARENA_ALGORITHMS = ("pb", "sb", "ab", "penalty", "regret", "sampling")

_STOCK_FACTORIES = {
    "pb": PlanBouquet,
    "sb": SpillBound,
    "ab": AlignedBound,
}


def arena_algorithms(instance, profile=None, algorithms=None):
    """Build the arena lineup against one workload instance.

    Returns an ordered ``{name: algorithm}`` dict.  Stock algorithms
    take the instance's ESS and contours; rivals additionally get the
    selectivity-error ``profile`` (default
    :data:`~repro.arena.profiles.DEFAULT_PROFILE`).
    """
    names = tuple(algorithms) if algorithms else ARENA_ALGORITHMS
    profile = as_profile(profile)
    built = {}
    for name in names:
        if name in _STOCK_FACTORIES:
            built[name] = _STOCK_FACTORIES[name](
                instance.ess, instance.contours)
        elif name in RIVAL_FACTORIES:
            built[name] = RIVAL_FACTORIES[name](
                instance.ess, instance.contours, profile=profile)
        else:
            known = tuple(_STOCK_FACTORIES) + tuple(RIVAL_FACTORIES)
            raise ReproError(
                f"unknown arena algorithm {name!r}; choose from {known}"
            )
    return built


@dataclass(frozen=True)
class ArenaRow:
    """One (workload, algorithm) cell of the arena."""

    seed: int
    workload: str
    family: str
    num_epps: int
    algorithm: str
    mso: float
    aso: float
    guarantee: float | None

    def to_payload(self):
        return {
            "seed": self.seed,
            "workload": self.workload,
            "family": self.family,
            "num_epps": self.num_epps,
            "algorithm": self.algorithm,
            "mso": self.mso,
            "aso": self.aso,
            "guarantee": self.guarantee,
        }


@dataclass
class ArenaReport:
    """The full head-to-head grid plus its conformance verdict."""

    rows: list = field(default_factory=list)
    algorithms: tuple = ARENA_ALGORITHMS
    family: str = "random"
    num_workloads: int = 0
    profile_spec: tuple = ()
    num_violations: int = 0
    violations_by_invariant: dict = field(default_factory=dict)

    def by_algorithm(self):
        """Aggregate ``{algorithm: {...}}`` over the workload set."""
        out = {}
        for name in self.algorithms:
            rows = [r for r in self.rows if r.algorithm == name]
            if not rows:
                continue
            msos = np.array([r.mso for r in rows])
            asos = np.array([r.aso for r in rows])
            out[name] = {
                "workloads": len(rows),
                "worst_mso": float(msos.max()),
                "mean_mso": float(msos.mean()),
                "mean_aso": float(asos.mean()),
                "worst_aso": float(asos.max()),
            }
        return out

    def scatter_series(self):
        """``[(name, [(aso, mso), ...]), ...]`` for the svg scatter."""
        return [
            (name, [(r.aso, r.mso) for r in self.rows
                    if r.algorithm == name])
            for name in self.algorithms
        ]

    def to_payload(self):
        """The arena as plain JSON data (``repro arena --json``)."""
        return {
            "family": self.family,
            "num_workloads": self.num_workloads,
            "algorithms": list(self.algorithms),
            "profile": list(self.profile_spec),
            "rows": [row.to_payload() for row in self.rows],
            "by_algorithm": self.by_algorithm(),
            "num_violations": self.num_violations,
            "violations_by_invariant": dict(self.violations_by_invariant),
        }


def run_arena(num_workloads=20, base_seed=0, family="random",
              algorithms=None, profile=None, engine="auto",
              monitor=None, use_cache=True):
    """Sweep the whole lineup over a shared seeded workload set.

    Args:
        num_workloads: how many seeds (``base_seed ..
            base_seed + num_workloads - 1``) to build.
        family: workload family (:data:`WORKLOAD_FAMILIES`).
        algorithms: lineup override (names from
            :data:`ARENA_ALGORITHMS`); default the full lineup.
        profile: the rivals' selectivity-error profile (an
            :class:`~repro.arena.profiles.ErrorProfile`, or None for the
            default).
        engine: sweep engine passed to
            :func:`~repro.core.mso.evaluate_algorithm`.
        monitor: an existing :class:`ConformanceMonitor` to record
            into; default a fresh one.  Every sweep and each
            worst-location traced run is checked into it.
        use_cache: forwarded to the workload builder.

    Returns:
        :class:`ArenaReport`.
    """
    num_workloads = int(num_workloads)
    if num_workloads < 1:
        raise ReproError("the arena needs at least one workload")
    if family not in WORKLOAD_FAMILIES:
        raise ReproError(
            f"unknown workload family {family!r}; "
            f"choose from {WORKLOAD_FAMILIES}"
        )
    profile = as_profile(profile)
    names = tuple(algorithms) if algorithms else ARENA_ALGORITHMS
    mon = monitor if monitor is not None else ConformanceMonitor()
    before = len(mon.violations)
    rows = []
    for seed in range(int(base_seed), int(base_seed) + num_workloads):
        instance = build_conformance_instance(
            seed, family=family, use_cache=use_cache)
        mon.check_contour_ladder(instance.contours, engine="arena")
        lineup = arena_algorithms(
            instance, profile=profile, algorithms=names)
        with mon.context(seed=seed, workload=instance.name):
            for name, algorithm in lineup.items():
                evaluation = evaluate_algorithm(
                    algorithm, engine=engine)
                mon.check_sweep(evaluation.suboptimality, algorithm,
                                engine=evaluation.engine)
                worst = evaluation.worst_location
                result = algorithm.run(worst, trace=True)
                mon.check_run(result, algorithm, engine="arena")
                guarantee = None
                if hasattr(algorithm, "mso_guarantee"):
                    guarantee = float(algorithm.mso_guarantee())
                rows.append(ArenaRow(
                    seed=seed,
                    workload=instance.name,
                    family=family,
                    num_epps=instance.num_epps,
                    algorithm=name,
                    mso=evaluation.mso,
                    aso=evaluation.aso,
                    guarantee=guarantee,
                ))
    fresh = mon.violations[before:]
    by_invariant = {}
    for violation in fresh:
        key = violation.invariant
        by_invariant[key] = by_invariant.get(key, 0) + 1
    return ArenaReport(
        rows=rows,
        algorithms=names,
        family=family,
        num_workloads=num_workloads,
        profile_spec=profile.spec(),
        num_violations=len(fresh),
        violations_by_invariant=by_invariant,
    )
