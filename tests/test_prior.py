"""Unit tests for the selectivity-prior package.

Covers the prior classes themselves (pmf shape/normalization, spec
round trips, the history store), the :class:`PriorSchedule` decisions
(band clamp, quantile targeting, ordering stability), the two new
conformance invariants, source attribution of ``--prior`` /
``REPRO_PRIOR`` through :mod:`repro.settings`, and the serving
protocol's ``prior`` field.
"""

import json
import os

import numpy as np
import pytest

from repro import settings
from repro.cli import main
from repro.conformance.monitors import ConformanceMonitor
from repro.conformance.workloads import build_conformance_instance
from repro.core.plan_bouquet import PlanBouquet
from repro.core.spill_bound import SpillBound
from repro.errors import ReproError
from repro.prior import (
    DEFAULT_QUANTILE,
    HistoryPrior,
    HistoryStore,
    PriorSchedule,
    SampledPrior,
    UniformPrior,
    as_prior,
    history_key,
    make_prior,
    prior_from_spec,
)
from repro.serve.protocol import ProtocolError, parse_discover


@pytest.fixture(scope="module")
def instance():
    return build_conformance_instance(7)


# ----------------------------------------------------------------------
# Prior classes
# ----------------------------------------------------------------------


def test_uniform_prior_is_inert(instance):
    prior = UniformPrior()
    assert not prior.is_active
    assert prior.pmf(instance.ess.grid) is None
    assert prior.spec() == ("uniform",)


def test_sampled_prior_pmf_normalized(instance):
    prior = SampledPrior.fit(instance.query)
    pmf = prior.pmf(instance.ess.grid)
    assert len(pmf) == len(instance.ess.grid.resolution)
    for d, vector in enumerate(pmf):
        assert vector.shape == (instance.ess.grid.resolution[d],)
        assert vector.min() > 0.0  # floor mass: never a zeroed slice
        assert np.isclose(vector.sum(), 1.0)


def test_sampled_fit_deterministic(instance):
    a = SampledPrior.fit(instance.query)
    b = SampledPrior.fit(instance.query)
    assert a.params == b.params


def test_sampled_spec_roundtrip_bit_identical(instance):
    prior = SampledPrior.fit(instance.query)
    rebuilt = prior_from_spec(prior.spec())
    assert isinstance(rebuilt, SampledPrior)
    for a, b in zip(prior.pmf(instance.ess.grid),
                    rebuilt.pmf(instance.ess.grid)):
        assert np.array_equal(a, b)


def test_history_prior_empty_is_inert(instance):
    prior = HistoryPrior(())
    assert prior.is_active  # kind-active...
    assert prior.pmf(instance.ess.grid) is None  # ...but schedule-inert
    schedule = PriorSchedule(prior, instance.ess, instance.contours)
    assert not schedule.active
    assert schedule.start_for(0) == 1


def test_history_store_roundtrip(tmp_path, instance):
    store = HistoryStore(str(tmp_path / "h.jsonl"))
    key = history_key(instance.query, instance.ess)
    qa = instance.query.true_location()
    store.record(key, qa)
    store.record("other:key", qa)
    rows = store.observations(key, len(qa))
    assert rows == [tuple(float(v) for v in qa)]
    prior = HistoryPrior.from_store(store, key, len(qa))
    assert prior.pmf(instance.ess.grid) is not None


def test_history_store_tolerates_garbage(tmp_path, instance):
    path = tmp_path / "h.jsonl"
    key = history_key(instance.query, instance.ess)
    qa = instance.query.true_location()
    HistoryStore(str(path)).record(key, qa)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("not json\n")
        handle.write(json.dumps({"key": key, "sel": [0.5]}) + "\n")
    rows = HistoryStore(str(path)).observations(key, len(qa))
    assert len(rows) == 1
    assert HistoryStore(str(tmp_path / "absent.jsonl")).observations(
        key, len(qa)) == []


def test_history_spec_roundtrip(tmp_path, instance):
    store = HistoryStore(str(tmp_path / "h.jsonl"))
    key = history_key(instance.query, instance.ess)
    store.record(key, instance.query.true_location())
    prior = HistoryPrior.from_store(store, key, instance.query.num_epps)
    rebuilt = prior_from_spec(prior.spec())
    for a, b in zip(prior.pmf(instance.ess.grid),
                    rebuilt.pmf(instance.ess.grid)):
        assert np.array_equal(a, b)


def test_as_prior_and_make_prior(instance):
    assert isinstance(as_prior(None), UniformPrior)
    sampled = SampledPrior.fit(instance.query)
    assert as_prior(sampled) is sampled
    assert isinstance(as_prior(("uniform",)), UniformPrior)
    with pytest.raises(ReproError):
        as_prior(3.14)
    assert isinstance(make_prior(None), UniformPrior)
    assert isinstance(make_prior("uniform"), UniformPrior)
    with pytest.raises(ReproError):
        make_prior("bogus")
    with pytest.raises(ReproError):
        make_prior("sampled")  # needs a query context


def test_prior_from_spec_rejects_malformed():
    with pytest.raises(ReproError):
        prior_from_spec(("mystery", 1))
    with pytest.raises(ReproError):
        prior_from_spec("sampled")
    assert isinstance(prior_from_spec(None), UniformPrior)


# ----------------------------------------------------------------------
# PriorSchedule decisions
# ----------------------------------------------------------------------


def test_schedule_start_clamped_to_band(instance):
    prior = SampledPrior.fit(instance.query)
    schedule = PriorSchedule(prior, instance.ess, instance.contours)
    assert schedule.active
    assert 1 <= schedule.start_target <= instance.contours.num_contours
    for flat in range(0, instance.ess.grid.num_points,
                      max(1, instance.ess.grid.num_points // 50)):
        band = schedule.qa_band(flat)
        start = schedule.start_for(flat)
        assert 1 <= start <= band
        assert start <= schedule.start_target
    starts = schedule.start_array(
        np.arange(instance.ess.grid.num_points, dtype=np.int64))
    bands = schedule._bands(
        np.arange(instance.ess.grid.num_points, dtype=np.int64))
    assert np.all(starts >= 1)
    assert np.all(starts <= bands)


def test_schedule_quantile_moves_target(instance):
    low = PriorSchedule(SampledPrior.fit(instance.query, quantile=0.01),
                        instance.ess, instance.contours)
    high = PriorSchedule(SampledPrior.fit(instance.query, quantile=0.99),
                         instance.ess, instance.contours)
    assert low.start_target <= high.start_target


def test_schedule_order_steps_stable(instance):
    sb = SpillBound(instance.ess, instance.contours,
                    prior=SampledPrior.fit(instance.query))
    schedule = sb.prior_schedule()
    for index in range(1, instance.contours.num_contours + 1):
        steps = sb.contour_steps(index, learned={})
        probs = [schedule.completion_prob(s.exec_dim, s.learn_idx)
                 for s in steps]
        assert probs == sorted(probs, reverse=True)


def test_schedule_inert_returns_same_objects(instance):
    schedule = PriorSchedule(UniformPrior(), instance.ess,
                             instance.contours)
    steps = ["a", "b"]
    assert schedule.order_steps(steps) is steps
    pb = PlanBouquet(instance.ess, instance.contours)
    for rc in pb.reduction.reduced:
        assert pb.contour_plans(rc) is rc.plan_ids


def test_schedule_plan_order_is_permutation(instance):
    pb = PlanBouquet(instance.ess, instance.contours,
                     prior=SampledPrior.fit(instance.query))
    for rc in pb.reduction.reduced:
        ordered = pb.contour_plans(rc)
        assert sorted(ordered) == sorted(rc.plan_ids)
        # cached: second call returns the same ordering
        assert pb.contour_plans(rc) == ordered


# ----------------------------------------------------------------------
# Conformance monitors
# ----------------------------------------------------------------------


def test_monitor_prior_inertness_fires_on_mismatch(instance):
    monitor = ConformanceMonitor()
    sb = SpillBound(instance.ess, instance.contours)
    ref = np.ones(4, dtype=float)
    assert monitor.check_prior_inertness(ref, ref.copy(), sb)
    tampered = ref.copy()
    tampered[2] = 1.5
    with monitor.context(seed=0):
        assert not monitor.check_prior_inertness(ref, tampered, sb)
    assert monitor.counters.get("violations[prior-inert]", 0) == 1


def test_monitor_ladder_start_fires_below_schedule(instance):
    monitor = ConformanceMonitor()
    sb = SpillBound(instance.ess, instance.contours,
                    prior=SampledPrior.fit(instance.query))
    flat = instance.ess.grid.num_points - 1
    result = sb.run(flat, trace=True)
    with monitor.context(seed=0):
        monitor.check_run(result, sb, engine="loop")
    assert monitor.counters.get("violations[ladder-start]", 0) == 0
    # Tamper: pretend the run started below the schedule's start.
    schedule = sb.prior_schedule()
    start = schedule.start_for(flat)
    if start > 1:
        import dataclasses

        first = result.executions[0]
        result.executions = (
            [dataclasses.replace(first, contour=1)]
            + list(result.executions)
        )
        with monitor.context(seed=0):
            monitor.check_run(result, sb, engine="loop")
        assert monitor.counters.get("violations[ladder-start]", 0) >= 1


# ----------------------------------------------------------------------
# Prior choice resolution (flag vs env attribution, repro.settings)
# ----------------------------------------------------------------------


def test_resolve_choice_flag_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_PRIOR", "history")
    assert settings.get("REPRO_PRIOR", "sampled") == "sampled"


def test_resolve_choice_env_fallback_and_default(monkeypatch):
    monkeypatch.setenv("REPRO_PRIOR", "history")
    assert settings.get("REPRO_PRIOR") == "history"
    monkeypatch.delenv("REPRO_PRIOR")
    assert settings.get("REPRO_PRIOR") == "uniform"


def test_resolve_choice_names_flag_source():
    with pytest.raises(ReproError) as err:
        settings.get("REPRO_PRIOR", "bogus")
    assert "from --prior" in str(err.value)
    assert "bogus" in str(err.value)


def test_resolve_choice_names_env_source(monkeypatch):
    monkeypatch.setenv("REPRO_PRIOR", "bogus")
    with pytest.raises(ReproError) as err:
        settings.get("REPRO_PRIOR")
    assert "from REPRO_PRIOR" in str(err.value)


def test_cli_rejects_bad_prior_flag(capsys):
    assert main(["run", "2D_Q91", "--prior", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "from --prior" in err


def test_cli_rejects_bad_prior_env(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_PRIOR", "bogus")
    assert main(["run", "2D_Q91"]) == 2
    err = capsys.readouterr().err
    assert "from REPRO_PRIOR" in err


def test_cli_rejects_bad_ess_env(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_ESS", "psychic")
    assert main(["run", "2D_Q91"]) == 2
    err = capsys.readouterr().err
    assert "from REPRO_ESS" in err


def test_cli_run_with_sampled_prior(capsys):
    assert main(["run", "2D_Q91", "--prior", "sampled"]) == 0
    out = capsys.readouterr().out
    assert "sub-optimality" in out


def test_cli_run_records_history(tmp_path, monkeypatch, capsys):
    store_path = tmp_path / "store.jsonl"
    monkeypatch.setenv("REPRO_PRIOR_STORE", str(store_path))
    assert main(["run", "2D_Q91", "--prior", "history"]) == 0
    capsys.readouterr()
    assert store_path.exists()
    lines = store_path.read_text().strip().splitlines()
    assert len(lines) == 1
    # A second run now has one observation to schedule from.
    assert main(["run", "2D_Q91", "--prior", "history"]) == 0
    assert len(store_path.read_text().strip().splitlines()) == 2


# ----------------------------------------------------------------------
# Serving protocol
# ----------------------------------------------------------------------


def test_protocol_accepts_prior_modes():
    for mode in (None, "uniform", "sampled", "history"):
        payload = {"query": "2D_Q91"}
        if mode is not None:
            payload["prior"] = mode
        request = parse_discover(payload)
        assert request.prior == mode


def test_protocol_rejects_unknown_prior():
    with pytest.raises(ProtocolError) as err:
        parse_discover({"query": "2D_Q91", "prior": "bogus"})
    assert "prior" in str(err.value)


def test_serve_config_prior(monkeypatch):
    from repro.serve.server import ServeConfig

    assert ServeConfig.from_env().prior == "uniform"
    assert ServeConfig.from_env(prior="sampled").prior == "sampled"
    monkeypatch.setenv("REPRO_PRIOR", "history")
    assert ServeConfig.from_env().prior == "history"
    monkeypatch.setenv("REPRO_PRIOR", "bogus")
    with pytest.raises(ReproError):
        ServeConfig.from_env()


def test_prior_store_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_PRIOR_STORE", str(tmp_path / "s.jsonl"))
    assert HistoryStore().path == str(tmp_path / "s.jsonl")
