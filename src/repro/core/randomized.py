"""Randomized contour crossing: a peek past Theorem 4.6.

The Omega(D) lower bound (Section 4.3) is proved for *deterministic*
half-space pruning algorithms: the adversary inspects the algorithm's
fixed probe order and hides ``qa`` behind the last-probed dimension.
A natural question is whether randomization helps — against the same
adversarial family, a uniformly random probe order finds the hidden
dimension after (D+1)/2 probes in expectation instead of D.

:class:`RandomizedSpillBound` makes the idea concrete inside the real
framework: it executes each contour's spill steps in a random order
(re-drawn per contour crossing) instead of ascending dimension order.
The worst-*case* guarantee is unchanged — every step still has to
respect Lemmas 3.1/4.3 — but the *expected* cost at locations where an
early dimension learns first can improve, and
:func:`expected_suboptimality` measures it.  The companion game
:func:`randomized_game_expectation` replays the Theorem 4.6 adversary
against the randomized strategy.
"""

from __future__ import annotations

import numpy as np

from repro.core.lower_bound import AdversarialGame
from repro.core.spill_bound import SpillBound


class RandomizedSpillBound(SpillBound):
    """SpillBound with a per-contour random spill-step order.

    Args:
        ess / contour_set / cost_ratio: as for :class:`SpillBound`.
        seed: RNG seed; runs are reproducible given (seed, qa) and the
            per-run ``sample`` index.
    """

    def __init__(self, ess, contour_set=None, cost_ratio=2.0, seed=0):
        super().__init__(ess, contour_set, cost_ratio)
        self.seed = int(seed)
        self._sample = 0

    def set_sample(self, sample):
        """Select the randomization stream for subsequent runs."""
        self._sample = int(sample)

    def contour_steps(self, contour_index, learned):
        """SpillBound's steps for the state, shuffled by a stream keyed
        on ``(seed, sample, contour, step count)``."""
        steps = {step.exec_dim: step
                 for step in super().contour_steps(contour_index, learned)}
        dims = sorted(steps)
        np.random.default_rng(
            (self.seed, self._sample, contour_index, len(dims))
        ).shuffle(dims)
        return [steps[dim] for dim in dims]


def expected_suboptimality(ess, contour_set, qa, samples=16, seed=0):
    """Monte-Carlo expected sub-optimality of the randomized variant."""
    algorithm = RandomizedSpillBound(ess, contour_set, seed=seed)
    values = []
    for sample in range(samples):
        algorithm.set_sample(sample)
        values.append(algorithm.run(qa).suboptimality)
    return float(np.mean(values)), float(np.max(values))


def randomized_game_expectation(num_dims, samples=200, seed=0):
    """The Theorem 4.6 game against a random probe order.

    Returns the empirical expected sub-optimality — approaching
    ``(D+1)/2 + 1/... `` style savings versus the deterministic D —
    illustrating that the Omega(D) bound is specifically a bound on
    *deterministic* strategies.
    """
    rng = np.random.default_rng(seed)
    total = 0.0
    for _ in range(samples):
        game = AdversarialGame(num_dims)
        order = rng.permutation(num_dims)
        # The adversary commits qa uniformly at random *before* seeing
        # the (random) order — against randomized strategies it cannot
        # adapt to the realized order.
        hidden = int(rng.integers(num_dims))
        spent = 0.0
        for dim in order:
            game.probe(int(dim), 1.0)
            spent += 1.0
            if int(dim) == hidden:
                break
        total += spent
    return total / samples
