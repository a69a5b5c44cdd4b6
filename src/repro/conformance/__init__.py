"""Guarantee-conformance layer: the invariant checker and the
randomized conformance suite (``repro check``).

A :class:`ConformanceMonitor` checks what its caller hands it — a
sweep's sub-optimality array, a traced run, an executor's execution
records — and nothing else; the algorithms, sweep engines and
execution engines never import this package.  Importing it pulls in
only the checker; the suite and its workload generator load lazily.
"""

from repro.conformance.monitors import ConformanceMonitor, Violation

__all__ = ["ConformanceMonitor", "Violation"]
