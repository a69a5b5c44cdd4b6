"""The competing-algorithm arena.

ROADMAP item 3: the paper proves worst-case guarantees, but the related
work optimizes different robustness metrics entirely.  This package
implements those rivals against the *unchanged* ESS/discovery substrate
and runs everything head-to-head:

* :mod:`repro.arena.profiles` — configurable selectivity-error profiles
  (the error model the rivals plan under);
* :mod:`repro.arena.rivals` — a PARQO-style penalty-aware selector, a
  minmax-regret baseline (Alyoubi et al.), and a probabilistic
  plan-evaluation baseline (Kamali et al.), each exposing the same
  ``run``/``evaluate_all``/sweep-engine interface as PB/SB/AB;
* :mod:`repro.arena.adversarial` — the constructive Theorem 4.6
  workload family forcing MSO >= D on half-space-pruning algorithms;
* :mod:`repro.arena.report` — the head-to-head MSO/ASO sweep
  (``repro arena``).
"""

from repro.arena.adversarial import (
    AdversarialESS,
    adversarial_knobs,
    build_adversarial_instance,
)
from repro.arena.profiles import (
    DEFAULT_PROFILE,
    ErrorProfile,
    as_profile,
    zero_error_profile,
)
from repro.arena.report import (
    ARENA_ALGORITHMS,
    ArenaReport,
    ArenaRow,
    arena_algorithms,
    run_arena,
)
from repro.arena.rivals import (
    RIVAL_FACTORIES,
    FixedPlanRival,
    MinmaxRegretSelector,
    PenaltyAwareSelector,
    ProbabilisticSelector,
)

__all__ = [
    "AdversarialESS",
    "ARENA_ALGORITHMS",
    "ArenaReport",
    "ArenaRow",
    "DEFAULT_PROFILE",
    "ErrorProfile",
    "FixedPlanRival",
    "MinmaxRegretSelector",
    "PenaltyAwareSelector",
    "ProbabilisticSelector",
    "RIVAL_FACTORIES",
    "adversarial_knobs",
    "arena_algorithms",
    "as_profile",
    "build_adversarial_instance",
    "run_arena",
    "zero_error_profile",
]
