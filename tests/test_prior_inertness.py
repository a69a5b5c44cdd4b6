"""Differential suite: the uniform prior is an exact no-op.

Every (algorithm x engine x surface-mode) combination must produce a
sub-optimality sweep bit-identical to the plain no-prior construction
— ``np.array_equal``, not allclose.  This is the contract that lets
the prior ride inside the default constructors without a conformance
cost: scheduling only ever changes when a prior has actual mass.
"""

import numpy as np
import pytest

from repro.conformance.workloads import build_conformance_instance
from repro.core.aligned_bound import AlignedBound
from repro.core.mso import evaluate_algorithm
from repro.core.plan_bouquet import PlanBouquet
from repro.core.spill_bound import SpillBound
from repro.prior import HistoryPrior, UniformPrior

from tests.conftest import fuzz_seeds

ALGORITHMS = {"pb": PlanBouquet, "sb": SpillBound, "ab": AlignedBound}

SEEDS = fuzz_seeds([11, 29])


def _parallel(algorithm):
    from repro.perf.parallel import parallel_suboptimality

    return parallel_suboptimality(
        algorithm, range(algorithm.ess.grid.num_points), 2)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
@pytest.mark.parametrize("ess_mode", ["eager", "lazy"])
def test_uniform_prior_bit_identical_loop_and_batch(seed, algo, ess_mode):
    instance = build_conformance_instance(seed, ess_mode=ess_mode)
    cls = ALGORITHMS[algo]
    plain = cls(instance.ess, instance.contours)
    uniform = cls(instance.ess, instance.contours, prior=UniformPrior())
    for engine in ("loop", "batch"):
        ref = evaluate_algorithm(plain, engine=engine).suboptimality
        twin = evaluate_algorithm(uniform, engine=engine).suboptimality
        assert np.array_equal(ref, twin), (
            f"uniform prior changed {algo}/{engine} output"
        )


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_uniform_prior_bit_identical_parallel(algo):
    instance = build_conformance_instance(SEEDS[0])
    cls = ALGORITHMS[algo]
    plain = cls(instance.ess, instance.contours)
    uniform = cls(instance.ess, instance.contours, prior=UniformPrior())
    ref = _parallel(plain)
    twin = _parallel(uniform)
    assert ref is not None and twin is not None
    assert np.array_equal(ref, twin)


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_empty_history_prior_bit_identical(algo):
    """A history prior with no observations schedules exactly uniform."""
    instance = build_conformance_instance(SEEDS[0])
    cls = ALGORITHMS[algo]
    plain = cls(instance.ess, instance.contours)
    empty = cls(instance.ess, instance.contours, prior=HistoryPrior(()))
    for engine in ("loop", "batch"):
        ref = evaluate_algorithm(plain, engine=engine).suboptimality
        twin = evaluate_algorithm(empty, engine=engine).suboptimality
        assert np.array_equal(ref, twin)


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_prior_identical_traced_runs(seed):
    """Per-execution traces, not just totals, are unchanged."""
    instance = build_conformance_instance(seed)
    for cls in ALGORITHMS.values():
        plain = cls(instance.ess, instance.contours)
        uniform = cls(instance.ess, instance.contours,
                      prior=UniformPrior())
        for flat in (0, instance.ess.grid.num_points - 1):
            a = plain.run(flat, trace=True)
            b = uniform.run(flat, trace=True)
            assert a.total_cost == b.total_cost
            assert len(a.executions) == len(b.executions)
            for ra, rb in zip(a.executions, b.executions):
                assert (ra.contour, ra.plan_id, ra.mode, ra.budget,
                        ra.charged) == \
                       (rb.contour, rb.plan_id, rb.mode, rb.budget,
                        rb.charged)
