"""Engine fast-path support: memoisation and parallel sweeps.

The serving-path optimisations (evaluator memoisation, parallel
optimality sweeps) share two small pieces of infrastructure, collected
here so they stay testable:

* :mod:`repro.perf.memo` — an LRU of :class:`PatternEvaluator` instances
  keyed by *method signature*, so behaviourally identical methods share
  their spectra across instances (hits and misses land on the
  ``evaluator_lru`` perf counter of
  :func:`repro.obs.metrics.default_registry`),
* :mod:`repro.perf.parallel` — a deterministic ordered ``parallel_map``
  used by the optimality and assignment-search sweeps.
"""

from repro.perf.memo import method_signature, shared_evaluator
from repro.perf.parallel import parallel_map, resolve_workers

__all__ = [
    "method_signature",
    "shared_evaluator",
    "parallel_map",
    "resolve_workers",
]
