"""Theorem 4.6: the MSO lower bound for half-space pruning algorithms.

The constructive adversarial instance forces any deterministic
algorithm in the class E to pay at least D times the oracle cost; SB and
AB swept over it pay exactly D, certifying SpillBound's D^2+3D guarantee
is within an O(D) factor of optimal.
"""

from benchmarks.conftest import once
from repro.bench import harness
from repro.bench.report import format_table


def test_lower_bound(benchmark, emit):
    rows = once(benchmark, lambda: harness.run_lower_bound((2, 3, 4, 5, 6)))
    emit(format_table(
        "Theorem 4.6: adversarial lower bound (measured MSO >= D)",
        ["D", "measured MSO", "SB guarantee D^2+3D"],
        [[r["D"], r["measured_mso"], r["D"] ** 2 + 3 * r["D"]]
         for r in rows],
    ))
    for row in rows:
        assert row["measured_mso"] >= row["D"] - 1e-9
        # The gap to SB's guarantee is the paper's O(D) factor.
        assert row["D"] ** 2 + 3 * row["D"] <= (row["D"] + 3) * row[
            "measured_mso"
        ]
