"""The execution engine: budgeted, spillable, monitored plan runs.

Two interchangeable engines sit behind
:func:`~repro.engine.spill.execute_plan`: the tuple-at-a-time Volcano
interpreter (:mod:`repro.engine.iterators`, ground truth) and the
columnar vector engine (:mod:`repro.engine.vector`), charge-equivalent
to it — identical :class:`~repro.engine.executor.ExecutionOutcome` on
completed and budget-killed runs alike.  Vector is the default; it
falls back to Volcano for an execution it declines.
"""

from repro.engine.spill import ENGINES, execute_plan

__all__ = ["ENGINES", "execute_plan"]
