"""The MSO lower bound for half-space pruning algorithms (Theorem 4.6).

The paper proves that *no* deterministic algorithm in the class ``E`` of
half-space pruning discovery algorithms can guarantee ``MSO < D``.  The
argument is adversarial, and this module implements it as a playable
game (the randomized-strategy contrast of
:func:`repro.core.randomized.randomized_game_expectation` plays it):

* The hidden location ``qa`` is one of ``D`` candidates ``q^(1)..q^(D)``,
  where ``q^(k)`` has selectivity 1 along dimension ``k`` and 0 along
  every other dimension.  The synthetic cost surface gives each
  candidate the same optimal cost ``C``.
* A half-space pruning *probe* spends some budget ``b`` spilling on one
  dimension ``j`` and learns only a threshold fact: whether
  ``qa.j <= s(b)``, where the learnable threshold ``s(b)`` reaches 1
  only when ``b >= C`` (learning a dimension to completion costs a full
  plan execution at the contour budget).
* The adversary answers probes so as to keep as many candidates alive
  as possible: a probe on dimension ``j`` eliminates only candidate
  ``q^(j)``.

A deterministic algorithm's probe order is fixed, so the adversary
places ``qa`` at the dimension probed *last*: the algorithm pays at
least ``D * C`` before it can finish, while the oracle pays ``C`` —
hence ``MSO >= D``.  The real SB and AB meet that bound on the
constructive surface of :mod:`repro.arena.adversarial`
(``repro experiment lower-bound``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DiscoveryError


@dataclass
class ProbeRecord:
    """One probe: a budgeted spill execution on one dimension."""

    dim: int
    budget: float
    resolved: bool  # whether the probe fully learnt the dimension


class AdversarialGame:
    """The Theorem 4.6 adversary for ``D`` dimensions.

    Args:
        num_dims: D >= 2.
        contour_cost: the common optimal cost ``C`` of every candidate.

    The algorithm under test calls :meth:`probe` until :meth:`finished`;
    the adversary commits ``qa`` lazily (to the last surviving
    candidate), which is exactly the freedom a worst-case analysis has
    against a deterministic strategy.
    """

    def __init__(self, num_dims, contour_cost=1.0):
        if num_dims < 2:
            raise DiscoveryError("the lower bound needs D >= 2")
        self.num_dims = num_dims
        self.contour_cost = float(contour_cost)
        self.alive = set(range(num_dims))
        self.total_spent = 0.0
        self.probes = []

    def probe(self, dim, budget):
        """Spill-probe dimension ``dim`` with ``budget``.

        Returns ``True`` when the probe fully learns the dimension's
        selectivity (which, under adversarial play, means candidate
        ``q^(dim)`` is eliminated or confirmed).  Sub-budget probes learn
        nothing about the surviving candidates: every candidate other
        than ``q^(dim)`` has selectivity 0 along ``dim``, and the
        threshold below 1 cannot separate them.
        """
        if dim not in range(self.num_dims):
            raise DiscoveryError(f"probe dimension {dim} out of range")
        self.total_spent += min(budget, self.contour_cost)
        resolved = budget >= self.contour_cost - 1e-12
        if resolved and dim in self.alive and len(self.alive) > 1:
            # Adversary: qa is *not* the probed candidate while others
            # survive.
            self.alive.discard(dim)
        self.probes.append(ProbeRecord(dim=dim, budget=budget, resolved=resolved))
        return resolved

    @property
    def finished(self):
        """The algorithm can terminate once one candidate remains *and*
        that candidate's dimension has been resolved."""
        if len(self.alive) != 1:
            return False
        last = next(iter(self.alive))
        return any(p.dim == last and p.resolved for p in self.probes)

    def suboptimality(self):
        """Total spend over the oracle cost ``C``."""
        return self.total_spent / self.contour_cost

