"""Unit tests for the Theorem 4.6 lower bound: the game, and SB/AB on
the constructive instance."""

import numpy as np
import pytest

from repro import AdversarialGame, AlignedBound, DiscoveryError, SpillBound
from repro.arena.adversarial import build_adversarial_instance
from repro.core.mso import evaluate_algorithm


def _constructive_evaluations(d):
    instance = build_adversarial_instance(0, num_dims=d, resolution=4)
    return [evaluate_algorithm(cls(instance.ess, instance.contours))
            for cls in (SpillBound, AlignedBound)]


class TestGame:
    def test_requires_two_dims(self):
        with pytest.raises(DiscoveryError):
            AdversarialGame(1)

    def test_subbudget_probe_learns_nothing(self):
        game = AdversarialGame(3)
        assert not game.probe(0, 0.5)
        assert game.alive == {0, 1, 2}
        assert not game.finished

    def test_full_probe_eliminates_candidate(self):
        game = AdversarialGame(3)
        assert game.probe(0, 1.0)
        assert game.alive == {1, 2}

    def test_invalid_dim_rejected(self):
        game = AdversarialGame(2)
        with pytest.raises(DiscoveryError):
            game.probe(5, 1.0)

    def test_finished_requires_resolution_of_last(self):
        game = AdversarialGame(2)
        game.probe(0, 1.0)
        assert not game.finished  # dim 1 survives but is unresolved
        game.probe(1, 1.0)
        assert game.finished

    def test_spend_capped_at_budget(self):
        game = AdversarialGame(2, contour_cost=10.0)
        game.probe(0, 100.0)
        assert game.total_spent == pytest.approx(10.0)

    def test_repeated_probe_same_dim_wastes_budget(self):
        game = AdversarialGame(3)
        game.probe(0, 1.0)
        game.probe(0, 1.0)  # already eliminated: pure waste
        assert game.total_spent == pytest.approx(2.0)
        assert game.alive == {1, 2}


class TestTheorem:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 8])
    def test_sb_and_ab_achieve_exactly_d(self, d):
        for evaluation in _constructive_evaluations(d):
            assert evaluation.mso == pytest.approx(float(d))
            assert evaluation.aso == pytest.approx(float(d))

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_no_strategy_beats_d(self, d):
        """No location lets SB or AB pay < D: each probe learns one epp
        at a full contour budget, and D-1 probes plus the final plan
        are forced."""
        for evaluation in _constructive_evaluations(d):
            assert np.all(evaluation.suboptimality >= d - 1e-9)

    def test_cheap_probes_cannot_shortcut(self):
        game = AdversarialGame(4)
        for dim in range(4):
            game.probe(dim, 0.25)  # four cheap probes learn nothing
        assert not game.finished
        assert len(game.alive) == 4
