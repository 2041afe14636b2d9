"""Process-wide memoisation keyed by distribution-method signature.

A separable method's behaviour is fully determined by its group operation,
its file system, and its per-field contribution tables — not by the Python
instance that happens to carry them.  :func:`method_signature` digests those
into a stable hashable key, and :func:`shared_evaluator` uses it to share
one :class:`~repro.analysis.histograms.PatternEvaluator` (whose construction
costs ``O(n M log M)`` spectra) across every behaviourally identical
instance in the process.  The assignment searchers construct thousands of
short-lived ``FXDistribution`` objects, many of them duplicates across
restarts — with the LRU those duplicates cost a dictionary lookup.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigurationError
from repro.obs.metrics import default_registry

if TYPE_CHECKING:  # pragma: no cover - import for type checkers only
    from repro.analysis.histograms import PatternEvaluator
    from repro.distribution.base import SeparableMethod

__all__ = ["LRUCache", "method_signature", "shared_evaluator", "clear_memo"]

#: Evaluators kept alive process-wide; each holds O(n M) floats, so a few
#: dozen covers every sweep while bounding memory.
EVALUATOR_CACHE_SIZE = 64


class LRUCache:
    """A small thread-safe LRU with hit/miss counters.

    Values are computed under the lock by the factory passed to
    :meth:`get_or_create`; factories must be cheap to duplicate (a racing
    thread at worst recomputes, never corrupts).
    """

    def __init__(self, maxsize: int, counter_name: str):
        if maxsize <= 0:
            raise ConfigurationError(f"LRU maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self.counter_name = counter_name
        self._lock = threading.Lock()
        self._data: OrderedDict[object, object] = OrderedDict()

    def get_or_create(self, key: object, factory: Callable[[], object]) -> object:
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                default_registry().record_perf_hit(self.counter_name)
                return self._data[key]
        # Build outside the lock: factories (evaluator construction) can be
        # expensive and must not serialise unrelated lookups.
        value = factory()
        with self._lock:
            if key in self._data:  # another thread won the race; keep theirs
                self._data.move_to_end(key)
                default_registry().record_perf_hit(self.counter_name)
                return self._data[key]
            default_registry().record_perf_miss(self.counter_name)
            self._data[key] = value
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
            return value

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


def method_signature(method: "SeparableMethod") -> tuple:
    """Stable behavioural key of a separable method.

    ``(combine, M, field sizes, digest of contribution tables)`` — two
    instances with equal signatures map every bucket to the same device.
    Cached on the instance; methods are immutable after construction.
    """
    cached = method.__dict__.get("_perf_signature")
    if cached is not None:
        return cached
    fs = method.filesystem
    digest = hashlib.sha256()
    for i in range(fs.n_fields):
        digest.update(method.contribution_array(i).tobytes())
        digest.update(b"|")
    signature = (
        method.combine,
        fs.m,
        fs.field_sizes,
        digest.hexdigest(),
    )
    method.__dict__["_perf_signature"] = signature
    return signature


_EVALUATORS = LRUCache(EVALUATOR_CACHE_SIZE, "evaluator_lru")


def shared_evaluator(method: "SeparableMethod") -> "PatternEvaluator":
    """The process-wide :class:`PatternEvaluator` for *method*'s signature."""
    from repro.analysis.histograms import PatternEvaluator

    return _EVALUATORS.get_or_create(  # type: ignore[return-value]
        method_signature(method), lambda: PatternEvaluator(method)
    )


def clear_memo() -> None:
    """Drop every memoised evaluator (tests and long-lived servers)."""
    _EVALUATORS.clear()
