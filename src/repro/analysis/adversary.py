"""Adversarial workload search: how bad can one query get?

Averages hide tails.  For partial match the worst *pattern* falls out of
the optimality census, but for box queries the space is exponential, so
this module searches it: steepest-ascent hill climbing over per-field
ranges (each field carries a ``(start, width)`` window or is left
unconstrained), maximising the load factor
``largest_response / ceil(|box| / M)``.

Deterministic given the seed; restarts escape local maxima.  Used to
compare methods by their *worst found* range query, complementing the
average-case numbers in ``benchmarks/bench_box_queries.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.analysis.box import box_largest_response
from repro.distribution.base import SeparableMethod
from repro.errors import AnalysisError
from repro.query.box import BoxQuery
from repro.util.numbers import ceil_div

__all__ = ["AdversarialBox", "worst_box_search", "load_factor"]


def load_factor(method: SeparableMethod, box: BoxQuery) -> float:
    """``largest_response / ceil(|box| / M)`` — 1.0 means strict optimal."""
    bound = ceil_div(box.qualified_count, method.filesystem.m)
    return box_largest_response(method, box) / bound


@dataclass
class AdversarialBox:
    """Worst box found for one method."""

    box: BoxQuery
    factor: float
    evaluations: int
    history: list[tuple[int, float]] = field(default_factory=list)


# A window is (start, width); width == size means the field is unconstrained.
_Window = tuple[int, int]


def _windows_to_box(method: SeparableMethod, windows: list[_Window]) -> BoxQuery:
    allowed = []
    for size, (start, width) in zip(method.filesystem.field_sizes, windows):
        allowed.append(tuple(range(start, start + width)))
    return BoxQuery(method.filesystem, tuple(allowed))


def _neighbours(size: int, window: _Window) -> list[_Window]:
    """Single-field moves: shift by one, grow/shrink by one."""
    start, width = window
    candidates = [
        (start - 1, width),
        (start + 1, width),
        (start, width - 1),
        (start, width + 1),
        (start - 1, width + 1),
    ]
    return [
        (s, w)
        for s, w in candidates
        if 1 <= w <= size and 0 <= s and s + w <= size
    ]


def worst_box_search(
    method: SeparableMethod,
    restarts: int = 5,
    seed: int = 0,
) -> AdversarialBox:
    """Hill-climb range windows to maximise the load factor.

    Each restart draws a random window per field, then repeatedly applies
    the best single-field move until no move improves.  The incumbent over
    all restarts is returned with its search history.

    >>> from repro import FileSystem
    >>> from repro.distribution.modulo import ModuloDistribution
    >>> fs = FileSystem.of(8, 8, m=8)
    >>> result = worst_box_search(ModuloDistribution(fs), restarts=2)
    >>> result.factor >= 1.0
    True
    """
    if restarts < 1:
        raise AnalysisError("need at least one restart")
    fs = method.filesystem
    rng = random.Random(seed)

    best: AdversarialBox | None = None
    evaluations = 0
    history: list[tuple[int, float]] = []

    def evaluate(windows: list[_Window]) -> float:
        nonlocal evaluations, best
        box = _windows_to_box(method, windows)
        factor = load_factor(method, box)
        evaluations += 1
        if best is None or factor > best.factor:
            best = AdversarialBox(
                box=box, factor=factor, evaluations=evaluations
            )
            history.append((evaluations, factor))
        return factor

    for __ in range(restarts):
        windows: list[_Window] = []
        for size in fs.field_sizes:
            width = rng.randint(1, size)
            start = rng.randint(0, size - width)
            windows.append((start, width))
        current = evaluate(windows)
        improved = True
        while improved:
            improved = False
            best_move: tuple[int, _Window] | None = None
            best_score = current
            for i, size in enumerate(fs.field_sizes):
                for candidate in _neighbours(size, windows[i]):
                    trial = list(windows)
                    trial[i] = candidate
                    score = evaluate(trial)
                    if score > best_score:
                        best_score = score
                        best_move = (i, candidate)
            if best_move is not None:
                windows[best_move[0]] = best_move[1]
                current = best_score
                improved = True
    assert best is not None
    best.evaluations = evaluations
    best.history = history
    return best
