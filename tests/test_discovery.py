"""Unit tests for shared discovery machinery."""

import math

import pytest

from repro import ESSGrid
from repro.core.discovery import (
    DiscoveryResult,
    ExecutionRecord,
    normalize_location,
)


class TestNormalizeLocation:
    @pytest.fixture
    def grid(self):
        return ESSGrid(2, resolution=8, sel_min=1e-4)

    def test_flat_index(self, grid):
        coords, flat = normalize_location(grid, 13)
        assert flat == 13
        assert coords == grid.coords_of(13)

    def test_coords_tuple(self, grid):
        coords, flat = normalize_location(grid, (3, 5))
        assert coords == (3, 5)
        assert flat == grid.flat_index((3, 5))

    def test_selectivity_vector_snaps(self, grid):
        coords, flat = normalize_location(
            grid, (grid.values[0][2], grid.values[1][6])
        )
        assert coords == (2, 6)

    def test_numpy_integer_accepted(self, grid):
        import numpy as np

        coords, flat = normalize_location(grid, np.int64(7))
        assert flat == 7

    def test_mixed_float_tuple_snaps(self, grid):
        coords, _ = normalize_location(grid, (0.5, 1e-4))
        assert coords[1] == 0


class TestResultTypes:
    def test_suboptimality(self):
        result = DiscoveryResult(qa_coords=(0, 0), total_cost=30.0,
                                 optimal_cost=10.0)
        assert result.suboptimality == pytest.approx(3.0)

    def test_record_defaults(self):
        record = ExecutionRecord(
            contour=1, plan_id=0, plan_key="p", mode="spill", spill_dim=0,
            budget=10.0, charged=10.0, completed=False,
        )
        assert math.isnan(record.learned_selectivity)
        assert record.fresh
        assert record.penalty == 1.0

    def test_record_frozen(self):
        record = ExecutionRecord(
            contour=1, plan_id=0, plan_key="p", mode="normal", spill_dim=None,
            budget=1.0, charged=1.0, completed=True,
        )
        with pytest.raises(AttributeError):
            record.charged = 5.0


# ----------------------------------------------------------------------
# Executor substitution: a scripted executor drives the one walk
# ----------------------------------------------------------------------

from types import SimpleNamespace  # noqa: E402

from repro import SpillBound  # noqa: E402
from repro.core.discovery import (  # noqa: E402
    SimulatedExecutor,
    bouquet_ascent,
    discover,
)
from repro.errors import DiscoveryError  # noqa: E402

NUM_CONTOURS = 4


class StubAlgorithm:
    """What the walk asks of an algorithm, with nothing behind it: every
    unlearnt dimension is one step per contour, and the 1-D tail tries
    plan 0 once per contour."""

    def __init__(self, num_dims):
        self.num_dims = num_dims
        self.contours = SimpleNamespace(num_contours=NUM_CONTOURS)

    def contour_steps(self, contour_index, learned):
        return [SimpleNamespace(exec_dim=d, penalty=1.0, budget=10.0)
                for d in range(self.num_dims) if d not in learned]

    def tail_trials(self, free_dim, learned, start_contour):
        return ((c, 10.0, 0) for c in range(start_contour, NUM_CONTOURS + 1))


def scripted(base, completes_spill=(), completes_trial=()):
    """``base`` with outcomes chosen per step: spills whose
    ``(contour, dim, fresh)`` is in ``completes_spill`` learn grid index
    1, trials whose contour is in ``completes_trial`` complete,
    everything else is killed at its budget."""

    class Scripted(base):
        calls = []

        def spill(self, contour_index, step, fresh):
            key = (contour_index, step.exec_dim, fresh)
            self.calls.append(("spill",) + key)
            done = key in completes_spill
            return (1.0 if done else step.budget), (1 if done else None)

        def trial(self, contour_index, budget, plan_id):
            self.calls.append(("trial", contour_index))
            done = contour_index in completes_trial
            return (1.0 if done else budget), done

    return Scripted


class TestScriptedWalk:
    def test_stock_ascent_past_last_contour_raises(self, toy_ess):
        executor = scripted(SimulatedExecutor)(toy_ess, 0)
        with pytest.raises(DiscoveryError, match="ran out"):
            discover(StubAlgorithm(3), executor, 1)
        # Every contour crossed once, every epp fresh on each.
        assert executor.calls == [
            ("spill", c, d, True)
            for c in range(1, NUM_CONTOURS + 1) for d in range(3)
        ]

    def test_stock_tail_that_never_completes_raises(self, toy_ess):
        executor = scripted(
            SimulatedExecutor, completes_spill={(2, 0, True)}
        )(toy_ess, 0)
        with pytest.raises(DiscoveryError, match="ran out"):
            discover(StubAlgorithm(2), executor, 1)
        assert executor.calls[-3:] == [("trial", 2), ("trial", 3),
                                       ("trial", 4)]

    def test_repeat_execution_after_mid_contour_learn(self, toy_ess):
        # Contour 1: epp 0 killed, epp 1 learnt; the contour is
        # re-planned and epp 0 runs there a second time (not fresh).
        executor = scripted(
            SimulatedExecutor,
            completes_spill={(1, 1, True), (2, 2, True)},
            completes_trial={3},
        )(toy_ess, 0)
        total, num_exec, contour, plan_id, num_repeat, max_penalty = (
            discover(StubAlgorithm(3), executor, 1)
        )
        assert executor.calls == [
            ("spill", 1, 0, True), ("spill", 1, 1, True),
            ("spill", 1, 0, False), ("spill", 1, 2, True),
            ("spill", 2, 0, True), ("spill", 2, 2, True),
            ("trial", 2), ("trial", 3),
        ]
        assert (num_exec, num_repeat) == (8, 1)
        assert num_repeat <= 3 * 2 // 2  # Lemma 4.4: D(D-1)/2
        assert (contour, plan_id, max_penalty) == (3, 0, 1.0)
        # killed: 4 spills and one trial at budget 10; completed: 1 each.
        assert total == 4 * 10.0 + 2 * 1.0 + (10.0 + 1.0)

    def test_bouquet_ascent_stops_at_first_completion(self, toy_ess):
        executor = scripted(SimulatedExecutor, completes_trial={2})(
            toy_ess, 0)
        trials = [(1, 5.0, 7), (2, 5.0, 8), (3, 5.0, 9)]
        assert bouquet_ascent(executor, trials) == (6.0, 2, 2, 8)
        assert bouquet_ascent(executor, trials[:1]) == (5.0, 1, None, None)


class TestEngineExecutorSafetyNet:
    """The engine executor's exhaustion answer: the optimal plan at the
    learnt location, run without a budget."""

    @pytest.fixture(scope="class")
    def setup(self):
        from repro.bench.wallclock import build_wallclock_setup

        return build_wallclock_setup(row_budget=6_000, seed=7, resolution=6)

    def _walk(self, setup, **script):
        from repro.engine.driver import EngineExecutor

        executor = scripted(EngineExecutor, **script)(
            setup.ess, setup.generator, "vector")
        simulator = SpillBound(setup.ess, setup.contours)
        return executor.report, discover(simulator, executor, 1), simulator

    def test_ascent_past_last_contour(self, setup):
        report, walk, simulator = self._walk(setup)
        ess, top = setup.ess, setup.contours.num_contours
        (step,) = report.steps  # scripted kills log nothing
        terminus = ess.grid.flat_index(ess.grid.terminus)
        assert step.budget == float("inf") and step.completed
        assert step.mode == "normal" and step.contour == top + 1
        assert step.plan_key == ess.plan_keys[int(ess.plan_ids[terminus])]
        assert report.completed_plan_key == step.plan_key
        assert report.rows_out > 0
        assert report.total_cost == step.charged
        assert walk[2:4] == (top + 1, int(ess.plan_ids[terminus]))

    def test_tail_that_never_completes(self, setup):
        # Learn epps 0..2 (grid index 1 each) wherever a contour first
        # plans them, then kill every tail trial: the safety net runs
        # at the learnt location.
        top = setup.contours.num_contours
        report, walk, _ = self._walk(setup, completes_spill={
            (c, d, True) for c in range(1, top + 1) for d in range(3)})
        ess = setup.ess
        (step,) = report.steps
        learnt = ess.grid.flat_index((1, 1, 1, ess.grid.terminus[3]))
        assert step.budget == float("inf") and step.completed
        assert step.plan_key == ess.plan_keys[int(ess.plan_ids[learnt])]
        assert walk[3] == int(ess.plan_ids[learnt])


def test_engine_driver_follows_contour_steps_order():
    """With an active prior on the simulator, the engine executes each
    contour's steps in ``contour_steps`` order (the driver used to plan
    its own dimension-sorted list)."""
    import numpy as np

    from repro.bench.wallclock import build_wallclock_setup
    from repro.engine.driver import EngineDiscoveryDriver
    from repro.prior import SampledPrior

    setup = build_wallclock_setup(row_budget=6_000, seed=7, resolution=6)
    # Mass at selectivity 1 for epp 0 and at the origin for the rest:
    # completion looks least likely for epp 0, so it is scheduled last.
    prior = SampledPrior([(0.0, 0.3)] + [(np.log(1e-9), 0.3)] * 3)
    simulator = SpillBound(setup.ess, setup.contours, prior=prior)
    passes = []
    planned = simulator.contour_steps

    def logging_steps(contour_index, learned):
        steps = planned(contour_index, learned)
        passes.append((contour_index, [s.exec_dim for s in steps]))
        return steps

    simulator.contour_steps = logging_steps
    report = EngineDiscoveryDriver(simulator, setup.generator,
                                   engine="vector").run()
    spills = iter([s for s in report.steps if s.mode == "spill"])
    for contour_index, dims in passes:
        for dim in dims:
            step = next(spills)
            assert (step.contour, step.spill_dim) == (contour_index, dim)
            if step.completed:
                break
    assert next(spills, None) is None
    assert any(dims != sorted(dims) for _, dims in passes), (
        "the prior never reordered a contour: the test checks nothing"
    )
    assert report.completed_plan_key
