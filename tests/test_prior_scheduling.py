"""Active-prior scheduling: improvement, invariants, engine identity.

The other half of the prior contract (the inert half lives in
``test_prior_inertness.py``): with a *sampled* or *history* prior the
schedule may change — but all engines must change identically, every
MSO-machinery invariant must still hold, and the average-case
discovery cost at likely locations must actually drop.
"""

import numpy as np
import pytest

from repro.conformance.monitors import ConformanceMonitor
from repro.conformance.suite import run_workload
from repro.conformance.workloads import build_conformance_instance
from repro.core.aligned_bound import AlignedBound
from repro.core.mso import evaluate_algorithm
from repro.core.plan_bouquet import PlanBouquet
from repro.core.spill_bound import SpillBound
from repro.prior import HistoryStore, SampledPrior, history_key, make_prior

from tests.conftest import fuzz_seeds

ALGORITHMS = {"pb": PlanBouquet, "sb": SpillBound, "ab": AlignedBound}

SEEDS = fuzz_seeds([3, 17])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_active_prior_engines_bit_identical(seed, algo):
    """loop and batch agree point-for-point under an active prior."""
    instance = build_conformance_instance(seed)
    algorithm = ALGORITHMS[algo](
        instance.ess, instance.contours,
        prior=SampledPrior.fit(instance.query))
    assert algorithm.prior_schedule().active
    loop = evaluate_algorithm(algorithm, engine="loop").suboptimality
    batch = evaluate_algorithm(algorithm, engine="batch").suboptimality
    assert np.array_equal(loop, batch)


@pytest.mark.parametrize("seed", SEEDS)
def test_active_prior_zero_violations(seed):
    """The full conformance workload passes with the prior on."""
    monitor = ConformanceMonitor()
    outcome = run_workload(seed, monitor, prior="sampled")
    assert monitor.ok, [v.invariant for v in monitor.violations]
    for per_engine in outcome.engines.values():
        assert per_engine["batch"] == "identical"


@pytest.mark.parametrize("seed", SEEDS)
def test_active_prior_respects_guarantee(seed):
    """MSO stays under the closed-form bound with scheduling on."""
    instance = build_conformance_instance(seed)
    for cls in ALGORITHMS.values():
        algorithm = cls(instance.ess, instance.contours,
                        prior=SampledPrior.fit(instance.query))
        evaluation = evaluate_algorithm(algorithm, engine="batch")
        assert evaluation.mso <= algorithm.mso_guarantee() + 1e-9


def test_prior_cuts_cost_at_true_location():
    """At the true qa, prior scheduling is never worse and usually
    cheaper — averaged over seeds it must be a clear win."""
    ratios = []
    for seed in range(8):
        instance = build_conformance_instance(seed)
        qa = instance.query.true_location()
        for cls in ALGORITHMS.values():
            plain = cls(instance.ess, instance.contours)
            warm = cls(instance.ess, instance.contours,
                       prior=SampledPrior.fit(instance.query))
            cost_plain = plain.run(qa).total_cost
            cost_warm = warm.run(qa).total_cost
            ratios.append(cost_plain / cost_warm)
    ratios = np.asarray(ratios)
    assert np.all(ratios >= 1.0 - 1e-12)
    assert ratios.mean() >= 1.2


def test_prior_scheduled_runs_conform_and_never_cost_more(tmp_path):
    """Uniform, sampled and history priors at the true location: every
    run passes the conformance monitor, and neither active prior ever
    costs more than the uniform run of the same algorithm.  The history
    prior is fitted from the true location recorded in a fresh store —
    the repeat-workload case, where the schedule is most aggressive."""
    monitor = ConformanceMonitor()
    store = HistoryStore(str(tmp_path / "history.jsonl"))
    try:
        for seed in range(3):
            instance = build_conformance_instance(seed)
            qa = instance.query.true_location()
            store.record(history_key(instance.query, instance.ess), qa)
            priors = {kind: make_prior(kind, instance.query, instance.ess,
                                       store=store)
                      for kind in ("uniform", "sampled", "history")}
            with monitor.context(seed=seed, workload=instance.name):
                for name, cls in ALGORITHMS.items():
                    costs = {}
                    for kind, prior in priors.items():
                        algorithm = cls(instance.ess, instance.contours,
                                        prior=prior)
                        assert (algorithm.prior_schedule().active
                                == (kind != "uniform"))
                        result = algorithm.run(qa, trace=True)
                        monitor.check_run(result, algorithm, engine="loop")
                        costs[kind] = result.total_cost
                    for kind in ("sampled", "history"):
                        assert (costs[kind]
                                <= costs["uniform"] * (1 + 1e-12)), (
                            seed, name, kind, costs)
    finally:
        store.close()
    assert monitor.ok, [v.invariant for v in monitor.violations]


def test_start_contour_metric_observed():
    from repro.obs.metrics import REGISTRY

    instance = build_conformance_instance(SEEDS[0])
    algorithm = SpillBound(instance.ess, instance.contours,
                           prior=SampledPrior.fit(instance.query))
    before = REGISTRY.summary().get("histograms", {}).get(
        "repro_prior_start_contour{prior=sampled}", {}).get("count", 0)
    algorithm.run(instance.ess.grid.num_points - 1)
    after = REGISTRY.summary().get("histograms", {}).get(
        "repro_prior_start_contour{prior=sampled}", {}).get("count", 0)
    assert after == before + 1
