"""Tests for the guarantee-conformance layer.

Three levels:

* unit tests for every :class:`ConformanceMonitor` invariant, each with
  a tampered-input negative (the monitor must actually fire);
* caller tests — the suite checks every sweep it runs (exact counters),
  and an engine run's records pass :meth:`check_records`;
* suite tests — seeded randomized workloads through pb/sb/ab on every
  engine come back violation-free, injection comes back not-ok, and the
  ``repro check`` CLI exits accordingly.
"""

import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro import (
    ContourSet,
    DataGenerator,
    ESS,
    ESSGrid,
    ForeignKey,
    Schema,
    SpillBound,
    SPJQuery,
    Table,
    fk_column,
    join,
    key_column,
)
from repro.cli import main
from repro.conformance.monitors import ConformanceMonitor
from repro.conformance.suite import (
    INJECT_MODES,
    SUITE_ENGINES,
    run_suite,
    run_workload,
)
from repro.conformance.workloads import (
    build_conformance_instance,
    clear_cache,
    knobs_for,
)
from repro.core.aligned_bound import AlignedBound
from repro.core.discovery import ExecutionRecord
from repro.core.mso import evaluate_algorithm
from repro.engine.driver import EngineDiscoveryDriver
from tests.conftest import fuzz_seeds

pytestmark = pytest.mark.conformance

SUITE_SEEDS = fuzz_seeds([0, 101])


# ----------------------------------------------------------------------
# Monitor unit tests: every invariant, positive and tampered
# ----------------------------------------------------------------------

class TestSweepCheck:
    def test_clean_sweep_passes(self, toy_sb):
        monitor = ConformanceMonitor()
        monitor.check_sweep(np.ones(5), toy_sb, engine="loop")
        assert monitor.ok
        assert monitor.counters["sweeps"] == 1
        assert monitor.counters["sweeps[loop]"] == 1

    def test_sweep_beyond_guarantee_fires(self, toy_sb):
        monitor = ConformanceMonitor()
        sub = np.ones(5)
        sub[3] = toy_sb.mso_guarantee() * 2.0
        monitor.check_sweep(sub, toy_sb, engine="loop")
        assert [v.invariant for v in monitor.violations] == ["mso-bound"]
        assert monitor.violations[0].details["location"] == 3

    def test_sweep_below_one_fires(self, toy_sb):
        monitor = ConformanceMonitor()
        sub = np.ones(5)
        sub[1] = 0.5
        monitor.check_sweep(sub, toy_sb)
        assert [v.invariant for v in monitor.violations] == ["mso-bound"]

    def test_non_finite_sweep_fires(self, toy_sb):
        monitor = ConformanceMonitor()
        monitor.check_sweep(np.array([1.0, np.nan]), toy_sb)
        assert not monitor.ok


class TestContourLadderCheck:
    def test_real_contours_pass(self, toy_contours):
        monitor = ConformanceMonitor()
        monitor.check_contour_ladder(toy_contours)
        assert monitor.ok

    def _fake(self, budgets, ratio=2.0):
        return SimpleNamespace(
            budgets=np.asarray(budgets, dtype=float),
            cost_ratio=ratio,
            ess=SimpleNamespace(min_cost=budgets[0], max_cost=budgets[-1]),
        )

    def test_non_increasing_ladder_fires(self):
        monitor = ConformanceMonitor()
        monitor.check_contour_ladder(self._fake([4.0, 2.0, 8.0]))
        assert [v.invariant for v in monitor.violations] == ["contour-ladder"]

    def test_broken_geometric_step_fires(self):
        monitor = ConformanceMonitor()
        monitor.check_contour_ladder(self._fake([1.0, 3.0, 6.0, 12.0]))
        assert not monitor.ok
        assert all(v.invariant == "contour-ladder"
                   for v in monitor.violations)


class TestRunCheck:
    def test_clean_traced_runs_pass(self, toy_pb, toy_sb, toy_ab):
        monitor = ConformanceMonitor()
        for algorithm in (toy_pb, toy_sb, toy_ab):
            for flat in (0, 150, 399):
                monitor.check_run(algorithm.run(flat, trace=True), algorithm)
        assert monitor.ok, monitor.violations
        assert monitor.counters["runs"] == 9

    def test_tampered_total_cost_fires(self, toy_sb):
        monitor = ConformanceMonitor()
        result = toy_sb.run(150, trace=True)
        result.total_cost *= 1.01
        monitor.check_run(result, toy_sb)
        assert "charge-accounting" in monitor.violations_by_invariant()

    def test_tampered_learning_fires(self, toy_sb):
        monitor = ConformanceMonitor()
        result = toy_sb.run(0, trace=True)
        tampered, broken = [], False
        for rec in result.executions:
            if not broken and rec.mode == "spill" and rec.completed:
                rec = dataclasses.replace(
                    rec, learned_selectivity=rec.learned_selectivity * 7 + 1)
                broken = True
            tampered.append(rec)
        assert broken  # the origin always has a completed spill
        result.executions = tampered
        monitor.check_run(result, toy_sb)
        assert "exact-learning" in monitor.violations_by_invariant()

    def test_tampered_repeat_counter_fires(self, toy_sb):
        monitor = ConformanceMonitor()
        result = toy_sb.run(150, trace=True)
        result.num_repeat_executions += 1
        monitor.check_run(result, toy_sb)
        assert "repeat-bound" in monitor.violations_by_invariant()

    def test_truncated_sequence_fires(self, toy_sb):
        monitor = ConformanceMonitor()
        result = toy_sb.run(399, trace=True)
        result.executions = result.executions[:-1]
        monitor.check_run(result, toy_sb)
        assert "sequence" in monitor.violations_by_invariant()

    def test_tampered_pb_budget_fires(self, toy_pb):
        monitor = ConformanceMonitor()
        result = toy_pb.run(150, trace=True)
        result.executions = [
            dataclasses.replace(result.executions[0],
                                budget=result.executions[0].budget * 1.5)
        ] + list(result.executions[1:])
        monitor.check_run(result, toy_pb)
        assert "lambda-accounting" in monitor.violations_by_invariant()

    @staticmethod
    def _first_completed_spill(result):
        for k, rec in enumerate(result.executions):
            if rec.mode == "spill" and rec.completed:
                return k, rec
        raise AssertionError("run recorded no completed spill")

    def test_duplicate_spill_after_exact_learning_fires(self, toy_sb):
        # Lemma 3.1: once an epp is learnt exactly, spilling on it again
        # breaks half-space pruning.
        monitor = ConformanceMonitor()
        result = toy_sb.run(0, trace=True)
        k, rec = self._first_completed_spill(result)
        result.executions = (list(result.executions[:k + 1]) + [rec]
                             + list(result.executions[k + 1:]))
        monitor.check_run(result, toy_sb)
        assert "halfspace" in monitor.violations_by_invariant()

    def test_bound_above_later_learning_fires(self, toy_sb):
        # A killed spill's lower bound sitting above a later exact learn
        # of the same epp breaks learned-bound monotonicity.
        monitor = ConformanceMonitor()
        result = toy_sb.run(0, trace=True)
        k, rec = self._first_completed_spill(result)
        qa_sel = float(toy_sb.ess.grid.selectivity(
            rec.spill_dim, result.qa_coords[rec.spill_dim]))
        fake_kill = dataclasses.replace(
            rec, completed=False, charged=rec.budget,
            learned_selectivity=qa_sel * 2.0)
        result.executions = ([fake_kill] + list(result.executions)
                             if k == 0 else
                             list(result.executions[:k]) + [fake_kill]
                             + list(result.executions[k:]))
        monitor.check_run(result, toy_sb)
        assert "learned-monotonic" in monitor.violations_by_invariant()

    def test_tampered_spill_budget_fires(self, toy_sb):
        monitor = ConformanceMonitor()
        result = toy_sb.run(0, trace=True)
        k, rec = self._first_completed_spill(result)
        result.executions = (
            list(result.executions[:k])
            + [dataclasses.replace(rec, budget=rec.budget * 1.5)]
            + list(result.executions[k + 1:]))
        monitor.check_run(result, toy_sb)
        assert "budget-ladder" in monitor.violations_by_invariant()

    def test_tampered_ladder_start_fires(self, toy_ess, toy_contours):
        from repro.prior import make_prior

        prior = make_prior("sampled", toy_ess.query, toy_ess)
        scheduled = SpillBound(toy_ess, toy_contours, prior=prior)
        schedule = scheduled.prior_schedule()
        assert schedule.active
        monitor = ConformanceMonitor()
        result = scheduled.run(0, trace=True)
        monitor.check_run(result, scheduled)
        assert monitor.ok, monitor.violations
        band = schedule.qa_band(0)
        result.executions = [
            dataclasses.replace(result.executions[0], contour=band + 3)
        ] + list(result.executions[1:])
        monitor.check_run(result, scheduled)
        assert "ladder-start" in monitor.violations_by_invariant()


class TestBitIdentityCheck:
    def test_identical_arrays_pass(self, toy_sb):
        monitor = ConformanceMonitor()
        a = np.linspace(1.0, 2.0, 7)
        assert monitor.check_bit_identity(a, a.copy(), toy_sb)
        assert monitor.ok

    def test_single_ulp_difference_fires(self, toy_sb):
        monitor = ConformanceMonitor()
        a = np.linspace(1.0, 2.0, 7)
        b = a.copy()
        b[4] = np.nextafter(b[4], 2.0)
        assert not monitor.check_bit_identity(a, b, toy_sb,
                                              ("loop", "batch"))
        violation = monitor.violations[0]
        assert violation.invariant == "bit-identity"
        assert violation.details["num_mismatches"] == 1
        assert violation.details["first_mismatch"] == 4

    def test_shape_mismatch_fires(self, toy_sb):
        monitor = ConformanceMonitor()
        assert not monitor.check_bit_identity(np.ones(4), np.ones(5), toy_sb)
        assert not monitor.ok


class TestPriorInertCheck:
    def test_identical_sweeps_pass(self, toy_sb):
        monitor = ConformanceMonitor()
        a = np.linspace(1.0, 3.0, 9)
        assert monitor.check_bit_identity(a, a.copy(), toy_sb,
                                          invariant="prior-inert")
        assert monitor.ok
        assert monitor.counters == {"prior_inert": 1}

    def test_perturbed_uniform_sweep_fires(self, toy_sb):
        monitor = ConformanceMonitor()
        a = np.linspace(1.0, 3.0, 9)
        b = a.copy()
        b[2] = np.nextafter(b[2], 4.0)
        assert not monitor.check_bit_identity(a, b, toy_sb,
                                              invariant="prior-inert")
        violation = monitor.violations[0]
        assert violation.invariant == "prior-inert"
        assert violation.details["num_mismatches"] == 1
        assert violation.details["first_mismatch"] == 2

    def test_shape_mismatch_fires(self, toy_sb):
        monitor = ConformanceMonitor()
        assert not monitor.check_bit_identity(np.ones(4), np.ones(5), toy_sb,
                                              invariant="prior-inert")
        assert [v.invariant for v in monitor.violations] == ["prior-inert"]


@pytest.fixture(scope="module")
def driver_setup():
    """A tiny engine-backed instance for the engine-record tests."""
    schema = Schema("confdrv", tables=[
        Table("dim", 150, [key_column("d_id", 150)]),
        Table("fact", 5_000, [fk_column("f_dim_id", 150, indexed=True),
                              fk_column("f_cust_id", 200, indexed=True)]),
        Table("cust", 200, [key_column("c_id", 200)]),
    ], foreign_keys=[
        ForeignKey("fact", "f_dim_id", "dim", "d_id"),
        ForeignKey("fact", "f_cust_id", "cust", "c_id"),
    ])
    query = SPJQuery("confdrv2d", schema, ["dim", "fact", "cust"], joins=[
        join("dim", "d_id", "fact", "f_dim_id", selectivity=6e-3,
             error_prone=True),
        join("cust", "c_id", "fact", "f_cust_id", selectivity=4e-3,
             error_prone=True),
    ])
    gen = DataGenerator(schema, seed=23)
    gen.generate_table("dim")
    gen.generate_table("cust")
    gen.generate_table("fact", fk_skew={"f_dim_id": 0.8})
    ess = ESS.build(query, ESSGrid(2, resolution=8, sel_min=1e-4))
    return gen, ess, ContourSet(ess)


def _spill(contour, dim, budget, charged, completed=True):
    return ExecutionRecord(
        contour=contour, plan_id=0, plan_key="P", mode="spill",
        spill_dim=dim, budget=budget, charged=charged, completed=completed,
        learned_selectivity=1e-3 if completed else float("nan"))


def _normal(contour, budget, charged, completed=True):
    return ExecutionRecord(
        contour=contour, plan_id=0, plan_key="P", mode="normal",
        spill_dim=None, budget=budget, charged=charged, completed=completed)


class TestHooks:
    """A caller checks a sweep under the engine the sweep reports it
    ran on (``Evaluation.engine``), so the monitor files it there."""

    def test_batch_sweep_is_observed(self, toy_sb):
        monitor = ConformanceMonitor()
        evaluation = evaluate_algorithm(toy_sb, engine="batch")
        assert evaluation.engine == "batch"
        monitor.check_sweep(evaluation.suboptimality, toy_sb,
                            engine=evaluation.engine)
        assert monitor.counters.get("sweeps[batch]", 0) == 1
        assert monitor.ok

    def test_loop_sweep_is_observed(self, toy_sb):
        monitor = ConformanceMonitor()
        evaluation = evaluate_algorithm(toy_sb, engine="loop")
        assert evaluation.engine == "loop"
        monitor.check_sweep(evaluation.suboptimality, toy_sb,
                            engine=evaluation.engine)
        assert monitor.counters.get("sweeps[loop]", 0) == 1
        assert monitor.ok


class TestEngineReportCheck:
    """``check_records``: the executor-independent arm that certifies
    engine runs (``EngineReport.steps``), on hand-built records and on a
    real engine run."""

    def test_clean_records_pass(self):
        monitor = ConformanceMonitor()
        records = [_spill(1, 0, 10.0, 10.0, completed=False),
                   _spill(2, 0, 20.0, 5.0), _normal(2, 20.0, 7.0)]
        monitor.check_records(records, 22.0, "sb", "engine")
        assert monitor.ok, monitor.violations

    def test_overspend_and_relearn_fire(self):
        monitor = ConformanceMonitor()
        records = [_spill(1, 0, 10.0, 12.0), _spill(2, 0, 20.0, 5.0),
                   _normal(2, 20.0, 3.0)]
        monitor.check_records(records, 20.0, "sb", "engine")
        assert sorted(v.invariant for v in monitor.violations) == [
            "charge-accounting", "halfspace"]
        overspend, relearn = monitor.violations
        assert overspend.details["execution"] == 0
        assert relearn.details == {"qa": None, "execution": 1, "dim": 0}

    def test_no_completion_fires(self):
        # Ends on a completed spill, so only the "exactly one completed
        # normal-mode execution" arm can catch the missing result.
        monitor = ConformanceMonitor()
        monitor.check_records([_spill(1, 0, 10.0, 5.0)], 5.0, "sb",
                              "engine")
        assert [v.invariant for v in monitor.violations] == ["sequence"]
        assert "0 completed normal-mode" in monitor.violations[0].message

    @pytest.mark.parametrize("cls", [SpillBound, AlignedBound])
    def test_engine_run_passes(self, driver_setup, cls):
        gen, ess, contours = driver_setup
        simulator = cls(ess, contours)
        report = EngineDiscoveryDriver(simulator, gen).run()
        assert report.completed_plan_key
        assert all(isinstance(step, ExecutionRecord)
                   for step in report.steps)
        assert any(step.mode == "spill" for step in report.steps)
        monitor = ConformanceMonitor()
        monitor.check_records(report.steps, report.total_cost, simulator,
                              "engine")
        assert monitor.ok, monitor.violations


class TestMonitorPlumbing:
    def test_jsonl_records_are_parseable(self, toy_sb, tmp_path):
        path = tmp_path / "violations.jsonl"
        monitor = ConformanceMonitor(jsonl_path=str(path))
        assert path.exists() and path.read_text() == ""  # created up front
        with monitor.context(seed=42, workload="w"):
            sub = np.ones(3)
            sub[0] = toy_sb.mso_guarantee() * 3.0
            monitor.check_sweep(sub, toy_sb, engine="loop")
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["invariant"] == "mso-bound"
        assert record["algorithm"] == "sb"
        assert record["engine"] == "loop"
        assert record["seed"] == 42 and record["workload"] == "w"

    def test_context_restores_on_exit(self, toy_sb):
        monitor = ConformanceMonitor()
        with monitor.context(seed=1):
            pass
        monitor.check_sweep(np.array([0.5]), toy_sb)
        assert "seed" not in monitor.violations[0].details


# ----------------------------------------------------------------------
# Workload generator
# ----------------------------------------------------------------------

class TestConformanceWorkloads:
    def test_knobs_deterministic_and_in_range(self):
        for seed in range(20):
            for d in (2, 3, 4):
                res, ratio, noise = knobs_for(seed, d)
                assert (res, ratio, noise) == knobs_for(seed, d)
                assert ratio in (1.8, 2.0, 2.5)
                assert noise in (0.0, 0.05, 0.15)

    def test_same_seed_rebuilds_bit_identically(self):
        clear_cache()
        a = build_conformance_instance(5, use_cache=False)
        clear_cache()
        b = build_conformance_instance(5, use_cache=False)
        assert a.name == b.name
        assert np.array_equal(a.ess.optimal_cost, b.ess.optimal_cost)
        assert np.array_equal(a.ess.plan_ids, b.ess.plan_ids)
        assert np.array_equal(a.contours.budgets, b.contours.budgets)

    def test_different_seeds_differ(self):
        a = build_conformance_instance(0)
        b = build_conformance_instance(1)
        assert (a.name, a.ess.optimal_cost.shape) != \
            (b.name, b.ess.optimal_cost.shape) or \
            not np.array_equal(a.ess.optimal_cost, b.ess.optimal_cost)


# ----------------------------------------------------------------------
# The suite itself
# ----------------------------------------------------------------------

class TestConformanceSuite:
    @pytest.mark.parametrize("seed", SUITE_SEEDS)
    def test_single_workload_conforms(self, seed):
        monitor = ConformanceMonitor()
        outcome = run_workload(seed, monitor, trace_samples=2)
        assert monitor.ok, monitor.violations
        assert set(outcome.engines) == {"pb", "sb", "ab"}
        for per_engine in outcome.engines.values():
            assert per_engine["loop"] == "checked"
            assert per_engine["batch"] == "identical"
            assert per_engine["parallel"] == "identical"
        assert outcome.traced_runs >= 2 * 3

    def test_workload_counters_are_exact(self):
        # The suite hands every sweep it runs to the monitor: per
        # algorithm one loop reference, a uniform-prior twin and a plain
        # batched sweep, and one parallel fan-out; no other layer checks
        # anything into it.
        monitor = ConformanceMonitor()
        outcome = run_workload(0, monitor, trace_samples=2)
        assert outcome.traced_runs == 9
        assert monitor.counters == {
            "ladders": 1,
            "sweeps": 12,
            "sweeps[loop]": 3,
            "sweeps[batch]": 6,
            "sweeps[parallel]": 3,
            "bit_identity": 6,
            "prior_inert": 3,
            "runs": 9,
        }

    def test_small_suite_clean(self, tmp_path):
        path = tmp_path / "violations.jsonl"
        report = run_suite(num_workloads=2, base_seed=0,
                           trace_samples=2, jsonl_path=str(path))
        assert report.ok
        summary = report.summary()
        assert summary["workloads"] == 2
        assert summary["loop_sweeps"] == 2 * 3
        # Two batched sweeps per algorithm: the loop/batch identity
        # check plus the uniform-prior-twin inertness check.
        assert summary["batch_sweeps"] == 2 * 3 * 2
        assert summary["violations"] == 0
        assert summary["bit_identity_mismatches"] == 0
        assert path.exists() and path.read_text() == ""

    def test_loop_only_suite(self):
        report = run_suite(num_workloads=1, engines=("loop",),
                           trace_samples=1)
        assert report.ok
        summary = report.summary()
        assert summary["batch_sweeps"] == 0
        assert summary["parallel_sweeps"] == 0
        assert summary["bit_identity_checks"] == 0

    @pytest.mark.parametrize("mode", INJECT_MODES)
    def test_injection_fails_the_suite(self, mode):
        report = run_suite(num_workloads=1, trace_samples=1, inject=mode)
        assert not report.ok
        expected = {"mso": "mso-bound", "learning": "exact-learning"}[mode]
        assert expected in report.monitor.violations_by_invariant()

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            run_suite(num_workloads=1, engines=("loop", "bogus"))

    def test_unknown_injection_rejected(self):
        with pytest.raises(ValueError, match="injection"):
            run_suite(num_workloads=1, trace_samples=0, inject="nope")


class TestCheckCommand:
    def test_clean_check_exits_zero(self, capsys):
        code = main(["check", "--workloads", "1", "--trace-samples", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "conformance ok" in out

    def test_injected_check_exits_nonzero(self, capsys, tmp_path):
        path = tmp_path / "violations.jsonl"
        code = main(["check", "--workloads", "1", "--trace-samples", "1",
                     "--inject", "mso", "--jsonl", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "conformance FAILED" in out
        assert "VIOLATION [mso-bound]" in out
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert records and records[0]["invariant"] == "mso-bound"

    def test_verbose_prints_per_workload(self, capsys):
        code = main(["check", "--workloads", "1", "--trace-samples", "1",
                     "--verbose"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[1/1] seed 0" in out


# ----------------------------------------------------------------------
# Full-scale acceptance run (CI slow job; tier-1 deselects it)
# ----------------------------------------------------------------------

@pytest.mark.slow
def test_full_scale_suite_200_workloads():
    """The acceptance criterion: 200 seeded randomized workloads across
    pb/sb/ab x loop/batch/parallel, zero violations, zero bit-identity
    mismatches."""
    report = run_suite(num_workloads=200, base_seed=0)
    summary = report.summary()
    assert report.ok, report.monitor.violations[:10]
    assert summary["workloads"] == 200
    assert summary["loop_sweeps"] == 200 * 3
    assert summary["batch_sweeps"] == 200 * 3
    assert summary["bit_identity_mismatches"] == 0
    assert summary["violations"] == 0
