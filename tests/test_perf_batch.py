"""Tests for the frontier-batched sweep engine (repro.perf.batch).

The engine's contract is *bit-identity* with the per-location reference
loop — every comparison here is ``np.array_equal``, never a tolerance.
"""

import numpy as np
import pytest

from repro import AlignedBound, ContourSet, ESS, ESSGrid, PlanBouquet, SpillBound
from repro.arena.adversarial import AdversarialESS
from repro.bench import workloads
from repro.core.mso import evaluate_algorithm
from repro.errors import DiscoveryError
from repro.obs import trace
from repro.obs.metrics import REGISTRY
from repro.perf.batch import batched_suboptimality
from repro.prior import SampledPrior
from tests.conftest import make_star_query
from tests.reference_planner import reached_levels


def _loop_reference(algorithm, flats):
    """The scalar walk, point by point — the engine's ground truth."""
    return np.array(
        [algorithm.run(int(f)).suboptimality for f in flats], dtype=float
    )


@pytest.fixture(scope="module")
def star4_ess():
    query = make_star_query(4)
    grid = ESSGrid(4, resolution=6, sel_min=1e-6)
    return ESS.build(query, grid)


@pytest.fixture(scope="module")
def star4_contours(star4_ess):
    return ContourSet(star4_ess)


class TestBitIdentity2D:
    @pytest.mark.parametrize("fixture", ["toy_pb", "toy_sb", "toy_ab"])
    def test_full_grid(self, request, fixture):
        algorithm = request.getfixturevalue(fixture)
        batched = batched_suboptimality(algorithm)
        loop = _loop_reference(algorithm,
                               range(algorithm.ess.grid.num_points))
        assert batched is not None
        assert np.array_equal(batched, loop)


class TestBitIdentity3D:
    @pytest.mark.parametrize("cls", [PlanBouquet, SpillBound, AlignedBound])
    def test_full_grid(self, star_ess, star_contours, cls):
        algorithm = cls(star_ess, star_contours)
        batched = batched_suboptimality(algorithm)
        loop = _loop_reference(algorithm, range(star_ess.grid.num_points))
        assert np.array_equal(batched, loop)

    @pytest.mark.parametrize("cls", [PlanBouquet, SpillBound, AlignedBound])
    @pytest.mark.parametrize("cost_ratio", [1.37, 2.93, 4.51])
    def test_randomized_cost_ratios(self, star_ess, cls, cost_ratio):
        contours = ContourSet(star_ess, cost_ratio=cost_ratio)
        algorithm = cls(star_ess, contours)
        flats = np.random.default_rng(17).choice(
            star_ess.grid.num_points, size=128, replace=False
        )
        batched = batched_suboptimality(algorithm, flats)
        loop = _loop_reference(cls(star_ess, contours), flats)
        assert np.array_equal(batched, loop)


class TestBitIdentity4D:
    @pytest.mark.parametrize("cls", [PlanBouquet, SpillBound, AlignedBound])
    def test_sampled_locations(self, star4_ess, star4_contours, cls):
        algorithm = cls(star4_ess, star4_contours)
        full = batched_suboptimality(algorithm)
        flats = np.random.default_rng(4).choice(
            star4_ess.grid.num_points, size=150, replace=False
        )
        loop = _loop_reference(cls(star4_ess, star4_contours), flats)
        assert np.array_equal(full[flats], loop)


class TestPointsInput:
    def test_duplicates_and_order_preserved(self, toy_sb):
        points = [7, 7, 0, 63, 12, 7, 399]
        batched = batched_suboptimality(toy_sb, points)
        loop = _loop_reference(toy_sb, points)
        assert np.array_equal(batched, loop)
        assert batched[0] == batched[1] == batched[5]

    def test_empty_points(self, toy_sb):
        out = batched_suboptimality(toy_sb, [])
        assert out.shape == (0,)

    def test_restricted_matches_full(self, toy_ab):
        full = batched_suboptimality(toy_ab)
        points = [3, 99, 250]
        restricted = batched_suboptimality(toy_ab, points)
        assert np.array_equal(restricted, full[points])


class TestSideEffects:
    def test_ab_observed_max_penalty_parity(self, star_ess, star_contours):
        loop_ab = AlignedBound(star_ess, star_contours)
        _loop_reference(loop_ab, range(star_ess.grid.num_points))
        batch_ab = AlignedBound(star_ess, star_contours)
        batched_suboptimality(batch_ab)
        assert loop_ab.observed_max_penalty == batch_ab.observed_max_penalty


class TestCoverageGate:
    def test_subclasses_fall_back_to_loop(self, toy_ess, toy_contours):
        from repro.ess.dependence import (
            CorrelatedSpillBound,
            CorrelationSpec,
        )

        algo = CorrelatedSpillBound(
            toy_ess, [CorrelationSpec(0, 1, 0.3)], toy_contours
        )
        assert batched_suboptimality(algo) is None

    def test_timers_counters(self, toy_sb):
        REGISTRY.reset()
        batched_suboptimality(toy_sb, [1, 2, 3])
        assert REGISTRY.counter("batched_sweeps") == 1
        assert REGISTRY.counter("batched_sweep_points") == 3
        assert REGISTRY.counter("batched_sweep_states") >= 1


class TestEvaluateAlgorithmEngines:
    @pytest.mark.parametrize("cls", [PlanBouquet, SpillBound, AlignedBound])
    def test_engines_agree(self, star_ess, star_contours, cls):
        loop = evaluate_algorithm(cls(star_ess, star_contours),
                                  engine="loop")
        batch = evaluate_algorithm(cls(star_ess, star_contours),
                                   engine="batch")
        assert np.array_equal(loop.suboptimality, batch.suboptimality)
        assert loop.mso == batch.mso
        assert loop.worst_location == batch.worst_location


class TestLevelSweep:
    """The sweep plans a ``(contour, |learned|)`` level at a time and
    re-queues empty crossings; batch == loop must survive all of it."""

    @pytest.fixture(scope="class")
    def smoke5(self):
        return workloads.load("5D_Q19", profile="smoke", ess_mode="eager")

    @pytest.mark.parametrize("cls", [SpillBound, AlignedBound])
    def test_requeued_crossings_match_the_loop(self, smoke5, cls):
        """Catches planning a re-queued crossing at the wrong contour
        (``contour + 2``, or the level it was popped from): locations
        behind an empty slice would skip, or repeat, a contour's
        charges.  The surface must really have such crossings."""
        algorithm = cls(smoke5.ess, smoke5.contours)
        points = np.random.default_rng(5).choice(
            smoke5.ess.grid.num_points, size=160, replace=False)
        levels = reached_levels(algorithm, points)
        crossings = sum(
            not steps
            for contour_index, keys in levels
            for steps in algorithm.plan_level(contour_index, keys)
        )
        assert crossings > 20
        batched = batched_suboptimality(cls(smoke5.ess, smoke5.contours),
                                        points)
        assert np.array_equal(batched, _loop_reference(algorithm, points))

    @pytest.mark.parametrize("cls", [SpillBound, AlignedBound])
    def test_restricted_and_duplicated_points(self, smoke5, cls):
        points = [int(p) for p in np.random.default_rng(9).choice(
            smoke5.ess.grid.num_points, size=60)]
        points += points[:7]
        batched = batched_suboptimality(cls(smoke5.ess, smoke5.contours),
                                        points)
        loop = _loop_reference(cls(smoke5.ess, smoke5.contours), points)
        assert np.array_equal(batched, loop)

    @pytest.mark.parametrize("cls", [SpillBound, AlignedBound])
    def test_sampled_prior_schedule(self, cls):
        """Per-location start contours and prior-reordered steps: the
        level planner caches each state's steps in schedule order."""
        instance = workloads.load("4D_Q26", profile="smoke", ess_mode="eager")
        prior = SampledPrior.fit(instance.query)
        algorithm = cls(instance.ess, instance.contours, prior=prior)
        schedule = algorithm.prior_schedule()
        points = np.random.default_rng(13).choice(
            instance.ess.grid.num_points, size=120, replace=False)
        assert schedule.active
        assert len(set(schedule.start_array(points).tolist())) > 1
        batched = batched_suboptimality(algorithm, points)
        loop = _loop_reference(
            cls(instance.ess, instance.contours, prior=prior), points)
        assert np.array_equal(batched, loop)

    @pytest.mark.parametrize("cost_ratio", [1.6, 3.3])
    def test_cost_ratios_on_a_5d_surface(self, smoke5, cost_ratio):
        contours = ContourSet(smoke5.ess, cost_ratio=cost_ratio)
        points = np.random.default_rng(21).choice(
            smoke5.ess.grid.num_points, size=80, replace=False)
        batched = batched_suboptimality(
            AlignedBound(smoke5.ess, contours), points)
        loop = _loop_reference(AlignedBound(smoke5.ess, contours), points)
        assert np.array_equal(batched, loop)

    def test_through_parallel_chunks(self, monkeypatch, tmp_path):
        """Each worker chunk plans its own levels; the pieces must
        assemble into the loop's array."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        workloads.clear_cache()
        try:
            instance = workloads.load("4D_Q26", profile="smoke",
                                      ess_mode="eager")
            points = [int(p) for p in np.random.default_rng(3).choice(
                instance.ess.grid.num_points, size=90, replace=False)]
            loop = evaluate_algorithm(
                AlignedBound(instance.ess, instance.contours),
                points=points, engine="loop")
            parallel = evaluate_algorithm(
                AlignedBound(instance.ess, instance.contours),
                points=points, workers=2, engine="parallel")
        finally:
            workloads.clear_cache()
        assert np.array_equal(loop.suboptimality, parallel.suboptimality)

    @pytest.mark.parametrize("cls", [SpillBound, AlignedBound])
    def test_ladder_exhaustion_still_raises(self, cls):
        """A surface whose plans only ever spill on dimension 0: once it
        is learnt two epps remain and no contour plans a step, so the
        re-queued crossings climb past the last contour."""

        class OneSpillESS(AdversarialESS):
            def spill_order(self, plan_id):
                return [0]

        ess = OneSpillESS(3, 4, 100.0)
        algorithm = cls(ess, ContourSet(ess))
        with pytest.raises(DiscoveryError,
                           match="sweep ascended past the last contour"):
            batched_suboptimality(algorithm)
        with pytest.raises(DiscoveryError):
            algorithm.run(5)

    #: (points resolved, CRC-32 of the packed resolved mask) after the
    #: restricted sweep below, read at the parent commit (2879a8a).
    PARENT_RESOLVED = {SpillBound: (5350, 1677076837),
                       AlignedBound: (7050, 711484571)}

    @pytest.mark.parametrize("cls", [SpillBound, AlignedBound])
    def test_lazy_restricted_sweep_resolves_the_parents_points(self, cls):
        """Level planning must touch the contours (and, for the
        replacement pools, the neighbouring bands) the per-state
        planner touched, no more: a lazy surface ends up resolved at
        exactly the parent's points."""
        import zlib

        workloads.clear_cache()
        try:
            instance = workloads.load("4D_Q26", profile="smoke",
                                      resolution=10, ess_mode="lazy")
            points = [int(p) for p in np.random.default_rng(23).choice(
                10 ** 4, size=40, replace=False)]
            evaluate_algorithm(cls(instance.ess, instance.contours),
                               points=points + points[:5], engine="batch")
            mask = instance.ess._resolved_mask
        finally:
            workloads.clear_cache()
        assert (int(mask.sum()), zlib.crc32(np.packbits(mask).tobytes())
                ) == self.PARENT_RESOLVED[cls]

    def test_states_count_and_span_ledger(self, smoke5):
        """``batched_sweep_states`` counts the states transitions
        reached — not the re-queued crossings — and the ``sweep.batch``
        span says where the sweep's time went."""
        algorithm = SpillBound(smoke5.ess, smoke5.contours)
        levels = reached_levels(SpillBound(smoke5.ess, smoke5.contours))
        tracer = trace.Tracer()
        previous = trace.install_tracer(tracer)
        before = REGISTRY.counter("batched_sweep_states")
        try:
            batched_suboptimality(algorithm)
        finally:
            trace.install_tracer(previous)
        counted = REGISTRY.counter("batched_sweep_states") - before
        attrs = [span.attrs for span in tracer.spans
                 if span.name == "sweep.batch"][0]
        assert attrs["states"] == counted
        assert attrs["levels"] == len(levels)
        # Planned states include the re-queued crossings; the count
        # (which also holds the 1-D tail states) does not.
        assert counted == self.PARENT_STATES
        for name in ("plan_s", "walk_s", "tail_s"):
            assert attrs[name] >= 0.0

    def test_state_reached_after_a_crossing_is_counted_once(
            self, star_ess, star_contours):
        """A scripted sweep in which a transition reaches a state that a
        re-queued crossing opened first: the parent popped that state
        and the crossing's origin separately, so both count — six
        states here, five if the late arrival went uncounted."""
        from types import SimpleNamespace

        from repro.core.spill_bound import SpillStep

        grid = star_ess.grid
        coord = [grid.coord_array(d) for d in range(3)]
        on_line = (coord[0] == 1) & (coord[2] == 0)
        early = np.flatnonzero(on_line & (coord[1] == 0))
        late = np.flatnonzero(on_line & (coord[1] == 1))
        flat_curve = np.zeros(grid.resolution[0])

        def learn(dim, learn_idx):
            return [SpillStep(dim, 0, (0, 0, 0), 1.0, learn_idx, flat_curve)]

        script = {
            (1, ()): learn(0, 1),          # early learns dim 0 = 1 ...
            (1, ((0, 1),)): [],            # ... and crosses contour 1
            (2, ()): learn(0, 1),          # late reaches (2, {0: 1}) too
            (2, ((0, 1),)): learn(1, grid.resolution[1] - 1),
        }

        class Scripted(SpillBound):
            def plan_level(self, contour_index, learned_keys):
                return [script[contour_index, key] for key in learned_keys]

            def prior_schedule(self):
                return SimpleNamespace(
                    active=True,
                    start_array=lambda flats: np.where(
                        np.isin(flats, late), 2, 1),
                )

        # (Exact-type gate: drive the frontier engine directly.)
        from repro.perf.batch import _sweep_frontier

        before = REGISTRY.counter("batched_sweep_states")
        _sweep_frontier(Scripted(star_ess, star_contours),
                        np.sort(np.concatenate((early, late))))
        assert REGISTRY.counter("batched_sweep_states") - before == 6

    #: ``batched_sweep_states`` of a full SB sweep of smoke 5D_Q19, read
    #: at the parent commit (2879a8a): the walk did not change.
    PARENT_STATES = 1597
