"""Robustness metrics: MSO, ASO, and sub-optimality distributions.

Paper Section 2.3: the sub-optimality of a run is the ratio of its total
cost to the oracle cost, MSO is the worst case over the whole ESS, and
ASO (Equation 8) the average under a uniform prior over ``qa``.  The
histogram characterization of Figure 12 (counts of locations per
sub-optimality range) is also produced here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.discovery import loop_suboptimality


@dataclass
class Evaluation:
    """Exhaustive sub-optimality profile of an algorithm over the ESS.

    Attributes:
        suboptimality: ``(N,)`` array, one entry per grid location
            (``qa`` candidate).
        mso: empirical MSO (the array's max).
        aso: empirical ASO (the array's mean).
        worst_location: flat index achieving the MSO.
        engine: the sweep engine that produced the array (``"batch"``,
            ``"parallel"``, ``"vectorized"`` or ``"loop"``) — what a
            caller's ``ConformanceMonitor.check_sweep`` labels it with.
    """

    suboptimality: np.ndarray
    mso: float
    aso: float
    worst_location: int
    engine: str = ""

    def percentile(self, pct):
        return float(np.percentile(self.suboptimality, pct))

    def histogram(self, bin_width=5.0, max_bins=20):
        """Sub-optimality distribution (paper Figure 12).

        Returns ``(edges, fractions)`` — bin edges of width ``bin_width``
        starting at 0, with the final bin open-ended, and the fraction of
        ESS locations falling in each bin.
        """
        sub = self.suboptimality
        top = min(max_bins * bin_width, float(np.ceil(sub.max() / bin_width)) * bin_width)
        edges = np.arange(0.0, top + bin_width, bin_width)
        counts, _ = np.histogram(np.minimum(sub, top - 1e-9), bins=edges)
        return edges, counts / sub.size

    def fraction_below(self, threshold):
        """Fraction of ESS locations with sub-optimality below a value."""
        return float(np.mean(self.suboptimality < threshold))


#: Sweep-engine choices accepted by :func:`evaluate_algorithm`.
SWEEP_ENGINES = ("auto", "batch", "parallel", "loop")


def evaluate_algorithm(algorithm, points=None, workers=None, engine="auto"):
    """Exhaustively evaluate a discovery algorithm over the ESS.

    Every grid location is treated in turn as the actual selectivity
    location ``qa`` (the paper's "explicitly and exhaustively considering
    each and every location", Section 6.2.3).

    Three sweep engines exist (see ``docs/performance.md``): the
    frontier-batched engine of :mod:`repro.perf.batch` (visits each
    discovery state once, partitioning location sets with array
    arithmetic — bit-identical to the loop and preferred whenever it
    covers the algorithm), the multiprocess fan-out of
    :mod:`repro.perf.parallel` (forked workers chunk the location set and
    propagate each chunk through the shared state machine, so per-worker
    work scales with states touched, not points), and the per-location
    reference loop.

    Args:
        algorithm: object exposing either ``evaluate_all() -> (N,) array``
            (fast vectorized path) or ``run(qa) -> DiscoveryResult``.
        points: optional iterable of flat indices to restrict the sweep
            (used by sampled ablations); default is the full grid.
        workers: fan-out width for ``engine="parallel"``; default from
            ``REPRO_WORKERS``.
        engine: ``"auto"`` or ``"batch"`` (batched when covered, else
            serial), ``"parallel"`` (the multiprocess fan-out when
            ``workers > 1`` and the batch engine covers the algorithm,
            else serial — it runs only when named), or ``"loop"`` (the
            per-location reference loop — the benchmark baseline).

    Returns:
        :class:`Evaluation`.
    """
    from repro.obs.metrics import REGISTRY
    from repro.obs.trace import span as obs_span
    from repro.perf.batch import batched_suboptimality
    from repro.perf.parallel import parallel_suboptimality, worker_count

    if engine not in SWEEP_ENGINES:
        raise ValueError(
            f"unknown sweep engine {engine!r}; choose from {SWEEP_ENGINES}"
        )
    grid = algorithm.ess.grid
    # A full-grid sweep needs no materialized index list: range() will do.
    flat_list = range(grid.num_points) if points is None else list(points)
    query_name = getattr(getattr(algorithm.ess, "query", None), "name", "")
    with obs_span("sweep.evaluate", engine=engine, points=len(flat_list),
                  query=query_name) as sweep_span:
        sub = None
        used = "loop"
        if engine in ("auto", "batch"):
            sub = batched_suboptimality(
                algorithm, None if points is None else flat_list
            )
            if sub is not None:
                used = "batch"
        if engine == "parallel":
            sub = parallel_suboptimality(algorithm, flat_list,
                                         worker_count(workers))
            if sub is not None:
                used = "parallel"
        if sub is None:
            if (engine != "loop" and points is None
                    and hasattr(algorithm, "evaluate_all")):
                sub = np.asarray(algorithm.evaluate_all(), dtype=float)
                used = "vectorized"
            else:
                if not hasattr(algorithm, "run"):
                    from repro.errors import ReproError

                    raise ReproError(
                        f"no sweep engine covers "
                        f"{type(algorithm).__name__} and it has no "
                        "run() for the reference loop; register a "
                        "batch engine or implement run(qa)"
                    )
                sub = loop_suboptimality(algorithm, flat_list)
        REGISTRY.incr("sweeps", labels={"engine": used})
        REGISTRY.incr("sweep_points", len(flat_list),
                      labels={"engine": used})
        sweep_span.set_attr("engine_used", used)
    worst = int(flat_list[int(np.argmax(sub))])
    return Evaluation(
        suboptimality=sub,
        mso=float(sub.max()),
        aso=float(sub.mean()),
        worst_location=worst,
        engine=used,
    )
