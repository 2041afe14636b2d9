"""Exact per-device response histograms via group convolution.

For a separable method the device of a bucket is a fold of per-field
contributions under a group operation on ``Z_M`` (XOR for FX, addition mod M
for Modulo/GDM).  Writing ``h_i`` for field *i*'s *contribution histogram*
(``h_i[z]`` = number of field values contributing ``z``), a query's
per-device histogram is::

    histogram = translate_by_specified_fold( h_{u1} * h_{u2} * ... * h_{uk} )

where ``*`` is the group convolution over the unspecified fields and the
translation is the group action of the specified fields' folded contribution
(XOR-shift or cyclic rotation).  Two consequences drive everything in
section 5 of the paper:

* the histogram *shape* (hence the largest response size and strict
  optimality) depends only on the query's pattern, and
* it can be computed in ``O(k M log M)`` instead of ``O(|R(q)|)``.

Fast transforms: the Walsh-Hadamard transform diagonalises XOR convolution
and the DFT diagonalises cyclic convolution.  Both run in float; exactness is
preserved because any unspecified field with a *uniform* contribution
histogram (identity on ``F >= M``) forces the whole histogram uniform and is
short-circuited analytically, which keeps the remaining spectral magnitudes
far below 2**53 (see the guard in :meth:`PatternEvaluator._check_magnitude`).
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from repro.distribution.base import SeparableMethod
from repro.errors import AnalysisError
from repro.query.partial_match import PartialMatchQuery
from repro.util.numbers import ceil_div, is_power_of_two

__all__ = [
    "contribution_histogram",
    "xor_convolve",
    "cyclic_convolve",
    "fwht",
    "pattern_histogram",
    "separable_response_histogram",
    "evaluator_for",
    "PatternEvaluator",
]

#: Safety ceiling for float-exact integer arithmetic in the spectral domain.
_EXACT_FLOAT_LIMIT = 2.0**52


def contribution_histogram(method: SeparableMethod, field_index: int) -> np.ndarray:
    """Histogram over ``Z_M`` of one field's contributions (int64, length M)."""
    m = method.filesystem.m
    table = np.asarray(method.contribution_table(field_index), dtype=np.int64)
    return np.bincount(table, minlength=m).astype(np.int64)


def xor_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact XOR (dyadic) convolution: ``out[i ^ j] += a[i] * b[j]``.

    Direct O(M^2) integer implementation — the reference the spectral path
    is property-tested against.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    m = _common_length(a, b)
    indices = np.arange(m)[:, None] ^ np.arange(m)[None, :]
    products = a[:, None] * b[None, :]
    return np.bincount(indices.ravel(), weights=products.ravel(), minlength=m).astype(
        np.int64
    )


def cyclic_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact cyclic convolution mod M: ``out[(i + j) % M] += a[i] * b[j]``."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    m = _common_length(a, b)
    indices = (np.arange(m)[:, None] + np.arange(m)[None, :]) % m
    products = a[:, None] * b[None, :]
    return np.bincount(indices.ravel(), weights=products.ravel(), minlength=m).astype(
        np.int64
    )


def fwht(vector: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform (unnormalised), length a power of two.

    Self-inverse up to division by the length; diagonalises XOR convolution:
    ``fwht(a (*) b) == fwht(a) * fwht(b)``.
    """
    vector = np.asarray(vector, dtype=np.float64).copy()
    length = vector.shape[0]
    if not is_power_of_two(length):
        raise AnalysisError(f"FWHT length must be a power of two, got {length}")
    half = 1
    while half < length:
        blocks = vector.reshape(-1, 2 * half)
        left = blocks[:, :half].copy()
        right = blocks[:, half:].copy()
        blocks[:, :half] = left + right
        blocks[:, half:] = left - right
        half *= 2
    return vector


def _common_length(a: np.ndarray, b: np.ndarray) -> int:
    if a.shape != b.shape or a.ndim != 1:
        raise AnalysisError(
            f"convolution operands must be equal-length vectors, "
            f"got shapes {a.shape} and {b.shape}"
        )
    if not is_power_of_two(a.shape[0]):
        raise AnalysisError(f"length must be a power of two, got {a.shape[0]}")
    return a.shape[0]


def evaluator_for(method: SeparableMethod) -> "PatternEvaluator":
    """Return the shared :class:`PatternEvaluator` for *method*.

    Methods are immutable after construction, so evaluators are memoised
    process-wide in an LRU keyed by the method's behavioural signature
    (:func:`repro.perf.memo.shared_evaluator`): two equal methods — e.g.
    the thousands of short-lived ``FXDistribution`` instances an assignment
    search builds — share one set of spectra.  The instance also keeps a
    direct reference so the evaluator survives LRU eviction while its
    method is alive.
    """
    from repro.perf.memo import shared_evaluator

    evaluator = shared_evaluator(method)
    method._pattern_evaluator = evaluator  # type: ignore[attr-defined]
    return evaluator


def pattern_histogram(
    method: SeparableMethod, pattern: Iterable[int]
) -> np.ndarray:
    """Exact per-device histogram for a pattern (specified fold = identity).

    For any concrete query with this unspecified set, the true histogram is
    a group translation of this one, so maxima / minima / sorted loads are
    identical.
    """
    return evaluator_for(method).histogram(frozenset(pattern))


def separable_response_histogram(
    method: SeparableMethod, query: PartialMatchQuery
) -> list[int]:
    """Exact per-device histogram of *query*, with true device labels."""
    m = method.filesystem.m
    base = evaluator_for(method).histogram(query.pattern)
    shift = 0
    if method.combine == "xor":
        for i, v in query.specified_items():
            shift ^= method.field_contribution(i, v)
        return [int(base[d ^ shift]) for d in range(m)]
    for i, v in query.specified_items():
        shift += method.field_contribution(i, v)
    shift %= m
    return [int(base[(d - shift) % m]) for d in range(m)]


class PatternEvaluator:
    """Caches per-field spectra of one method for fast pattern sweeps.

    Construction is O(n M log M); each :meth:`histogram` call is
    O(k M + M log M).  Instances are cheap enough to build per method, and
    the table/figure engines keep one alive for the whole sweep.
    """

    def __init__(self, method: SeparableMethod):
        if method.combine not in ("xor", "add"):
            raise AnalysisError(
                f"PatternEvaluator needs a separable method, got combine="
                f"{method.combine!r}"
            )
        self.method = method
        self.m = method.filesystem.m
        self._sizes = method.filesystem.field_sizes
        self._histograms = [
            contribution_histogram(method, i)
            for i in range(method.filesystem.n_fields)
        ]
        # A field whose contributions cover Z_M uniformly forces the whole
        # convolution uniform; handled analytically (and keeps spectra small).
        self._uniform = [bool(np.all(h == h[0])) for h in self._histograms]
        if method.combine == "xor":
            self._spectra = [fwht(h) for h in self._histograms]
        else:
            self._spectra = [np.fft.rfft(h.astype(np.float64)) for h in self._histograms]
        #: Memoised histograms by pattern; at most 2**n entries of length M.
        self._pattern_cache: dict[frozenset[int], np.ndarray] = {}

    # ------------------------------------------------------------------
    # Core evaluation
    # ------------------------------------------------------------------
    def histogram(self, pattern: frozenset[int]) -> np.ndarray:
        """Per-device histogram for one unspecified-field set.

        Usually int64; falls back to an object (big-int) array when a
        uniform load per device would overflow 64 bits.  Results are
        memoised per pattern (hit rate under the ``pattern_histogram``
        counter) and returned read-only — copy before mutating.
        """
        from repro.obs.metrics import default_registry

        pattern = frozenset(pattern)
        cached = self._pattern_cache.get(pattern)
        if cached is not None:
            default_registry().record_perf_hit("pattern_histogram")
            return cached
        default_registry().record_perf_miss("pattern_histogram")
        result = self._compute_histogram(pattern)
        result.setflags(write=False)
        self._pattern_cache[pattern] = result
        return result

    def _compute_histogram(self, pattern: frozenset[int]) -> np.ndarray:
        self._check_pattern(pattern)
        qualified = math.prod(self._sizes[i] for i in pattern)
        uniform_value = self._uniform_load(pattern, qualified)
        if uniform_value is not None:
            if uniform_value <= np.iinfo(np.int64).max:
                return np.full(self.m, uniform_value, dtype=np.int64)
            return np.full(self.m, uniform_value, dtype=object)
        active = [i for i in pattern if not self._uniform[i]]
        if not active:
            # Exact match: one qualified bucket, landing on device 0 in the
            # untranslated (shape-only) frame.
            out = np.zeros(self.m, dtype=np.int64)
            out[0] = 1
            return out
        self._check_magnitude(active)
        if self.method.combine == "xor":
            spectrum = np.ones(self.m, dtype=np.float64)
            for i in active:
                spectrum *= self._spectra[i]
            values = fwht(spectrum) / self.m
        else:
            spectrum = np.ones(self.m // 2 + 1, dtype=np.complex128)
            for i in active:
                spectrum *= self._spectra[i]
            values = np.fft.irfft(spectrum, n=self.m)
        result = np.rint(values).astype(np.int64)
        if int(result.sum()) != qualified:
            raise AnalysisError(
                "spectral rounding failed consistency check "
                f"(sum {int(result.sum())} != |R(q)| {qualified})"
            )
        return result

    def largest_response(self, pattern: frozenset[int]) -> int:
        """``max_i r_i(q)`` for any query with this pattern."""
        pattern = frozenset(pattern)
        self._check_pattern(pattern)
        qualified = math.prod(self._sizes[i] for i in pattern)
        uniform_value = self._uniform_load(pattern, qualified)
        if uniform_value is not None:
            return uniform_value
        return int(self.histogram(pattern).max())

    def is_strict_optimal(self, pattern: frozenset[int]) -> bool:
        """Empirical strict optimality of every query with this pattern."""
        pattern = frozenset(pattern)
        qualified = math.prod(self._sizes[i] for i in pattern)
        return self.largest_response(pattern) <= ceil_div(qualified, self.m)

    def _uniform_load(self, pattern: frozenset[int], qualified: int) -> int | None:
        """Per-device load when some unspecified field is uniform, else None.

        A uniform factor makes the whole convolution uniform, so the load is
        exactly ``|R(q)| / M`` (kept as a Python int: it can exceed 64 bits
        for wide patterns over large fields).
        """
        if not any(self._uniform[i] for i in pattern):
            return None
        value, remainder = divmod(qualified, self.m)
        if remainder:
            raise AnalysisError(
                "uniform field with non-divisible product; contribution "
                "histogram was not actually uniform"
            )
        return value

    # ------------------------------------------------------------------
    # Guards
    # ------------------------------------------------------------------
    def _check_pattern(self, pattern: frozenset[int]) -> None:
        n = len(self._sizes)
        for i in pattern:
            if not 0 <= i < n:
                raise AnalysisError(f"pattern names field {i}, file has {n}")

    def _check_magnitude(self, active: list[int]) -> None:
        bound = math.prod(self._sizes[i] for i in active)
        if bound > _EXACT_FLOAT_LIMIT:
            raise AnalysisError(
                f"product of non-uniform unspecified field sizes ({bound}) "
                "exceeds the float-exact range; spectral evaluation would "
                "not be exact"
            )
