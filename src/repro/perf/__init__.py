"""Engine fast-path support: evaluator memoisation.

:mod:`repro.perf.memo` keeps an LRU of :class:`PatternEvaluator`
instances keyed by *method signature*, so behaviourally identical methods
share their spectra across instances (hits and misses land on the
``evaluator_lru`` perf counter of
:func:`repro.obs.metrics.default_registry`).
"""

from repro.perf.memo import method_signature, shared_evaluator

__all__ = [
    "method_signature",
    "shared_evaluator",
]
