#!/usr/bin/env python3
"""The actual-execution experiment (paper Section 6.3), on real data.

Generates a Q91-shaped database instance with filter-correlated skew
(the kind of correlation that wrecks uniformity-based estimates), then
*actually executes* — on the demand-driven iterator engine, with cost
budgets enforced and spill-mode monitoring — the plans chosen by:

* the oracle (optimal plan for the true selectivities),
* the native optimizer (plan chosen at its uniformity estimate),
* SpillBound's budgeted discovery sequence,
* AlignedBound's budgeted discovery sequence,

and reports each strategy's measured cost relative to the oracle.

Run:  python examples/wall_clock_run.py [row-budget]    (default 40000)
"""

import sys
import time

from repro.bench.harness import run_wallclock


def main():
    row_budget = int(sys.argv[1]) if len(sys.argv) > 1 else 40_000
    print(f"generating ~{row_budget} rows and building the ESS...")
    started = time.time()
    result = run_wallclock(row_budget=row_budget)
    elapsed = time.time() - started

    qa = ", ".join(f"{s:.3g}" for s in result["qa"])
    print(f"\nmeasured true selectivities qa = ({qa})")
    print(f"result sizes agree across strategies: {result['rows_match']}\n")

    print(f"{'strategy':>14} {'measured cost':>14} {'vs oracle':>10} "
          f"{'executions':>11}")
    print(f"{'oracle':>14} {result['oracle_cost']:>14.4g} {1.0:>10.2f} "
          f"{1:>11}")
    print(f"{'native':>14} {result['native_cost']:>14.4g} "
          f"{result['native_subopt']:>10.2f} {1:>11}")
    print(f"{'SpillBound':>14} {result['sb_cost']:>14.4g} "
          f"{result['sb_subopt']:>10.2f} {result['sb_steps']:>11}")
    print(f"{'AlignedBound':>14} {result['ab_cost']:>14.4g} "
          f"{result['ab_subopt']:>10.2f} {result['ab_steps']:>11}")

    print("\nSpillBound's budgeted executions:")
    epps = result["query"].epps
    for step in result["sb_report"].steps:
        kind = (f"spill {epps[step.spill_dim].name}" if step.mode == "spill"
                else "full plan")
        status = "completed" if step.completed else "killed"
        learned = ""
        if step.learned_selectivity == step.learned_selectivity:
            learned = f"  learned sel = {step.learned_selectivity:.3g}"
        print(f"  IC{step.contour:<3} {kind:<16} budget {step.budget:>10.4g} "
              f"spent {step.charged:>10.4g}  {status}{learned}")
    print(f"\n(wall time {elapsed:.1f}s)")


if __name__ == "__main__":
    main()
