"""Searching transform assignments — the paper's section 6 future work.

FX with the fixed I/U/IU1/IU2 toolkit cannot be perfect optimal once four or
more fields are smaller than ``M`` (no method can [Sung87]), and the paper
closes by calling for "more general transformation functions".  This module
explores that direction within the existing toolkit: treat the assignment of
families to small fields as a discrete optimisation problem, scored by the
*exact* fraction of strict-optimal query patterns (computable cheaply thanks
to the convolution engine).

Two searchers are provided: exhaustive enumeration for small field counts
and a seeded steepest-ascent hill climber with restarts for larger ones.
Both return the incumbent assignment and its score history, so the ablation
benchmark can compare searched assignments against the paper's round-robin.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.analysis.optim_prob import exact_fraction
from repro.core.fx import FXDistribution
from repro.errors import ConfigurationError
from repro.hashing.fields import FileSystem

__all__ = [
    "AssignmentSearchResult",
    "assignment_score",
    "exhaustive_assignment_search",
    "hill_climb_assignment_search",
]

#: Families a small field may receive.
SMALL_FIELD_FAMILIES = ("I", "U", "IU1", "IU2")

#: Exhaustive search cap: 4**8 = 65536 assignments is the sensible ceiling.
MAX_EXHAUSTIVE_SMALL_FIELDS = 8


@dataclass
class AssignmentSearchResult:
    """Outcome of an assignment search."""

    methods: tuple[str, ...]
    score: float
    evaluations: int
    #: (evaluations-so-far, incumbent score) whenever the incumbent improved.
    history: list[tuple[int, float]] = field(default_factory=list)

    def build(self, filesystem: FileSystem) -> FXDistribution:
        """Instantiate the winning FX method on *filesystem*."""
        return FXDistribution(filesystem, transforms=list(self.methods))


def assignment_score(
    filesystem: FileSystem, methods: Sequence[str], p: float = 0.5
) -> float:
    """Exact fraction of strict-optimal patterns for one assignment."""
    fx = FXDistribution(filesystem, transforms=list(methods))
    return exact_fraction(fx, p=p)


def _full_assignment(
    filesystem: FileSystem, small_methods: Sequence[str]
) -> tuple[str, ...]:
    """Expand per-small-field choices into a per-field method vector."""
    small = filesystem.small_fields()
    if len(small_methods) != len(small):
        raise ConfigurationError(
            f"{len(small_methods)} methods for {len(small)} small fields"
        )
    methods = ["I"] * filesystem.n_fields
    for index, method in zip(small, small_methods):
        methods[index] = method
    return tuple(methods)


def exhaustive_assignment_search(
    filesystem: FileSystem, p: float = 0.5
) -> AssignmentSearchResult:
    """Score every family assignment of the small fields; return the best.

    Ties break toward the first assignment in lexicographic order, which
    keeps results deterministic.
    """
    small = filesystem.small_fields()
    if len(small) > MAX_EXHAUSTIVE_SMALL_FIELDS:
        raise ConfigurationError(
            f"{len(small)} small fields means {4 ** len(small)} assignments; "
            "use hill_climb_assignment_search instead"
        )
    from repro.obs import trace_span

    combos = [
        _full_assignment(filesystem, combo)
        for combo in itertools.product(SMALL_FIELD_FAMILIES, repeat=len(small))
    ]
    with trace_span(
        "search.exhaustive",
        filesystem=filesystem.describe(),
        assignments=len(combos),
    ) as span:
        best_methods: tuple[str, ...] | None = None
        best_score = -1.0
        evaluations = 0
        history: list[tuple[int, float]] = []
        for methods in combos:
            score = assignment_score(filesystem, methods, p=p)
            evaluations += 1
            if score > best_score:
                best_score = score
                best_methods = methods
                history.append((evaluations, score))
        assert best_methods is not None
        span.set_attr("evaluations", evaluations)
        span.set_attr("score", round(best_score, 6))
    return AssignmentSearchResult(
        methods=best_methods,
        score=best_score,
        evaluations=evaluations,
        history=history,
    )


def hill_climb_assignment_search(
    filesystem: FileSystem,
    p: float = 0.5,
    restarts: int = 4,
    seed: int = 0,
) -> AssignmentSearchResult:
    """Steepest-ascent hill climbing over single-field family changes.

    Each restart begins from a random assignment (the first restart from the
    paper's round-robin, so the search never does worse than the paper) and
    moves to the best single-field change until no change improves.
    """
    small = filesystem.small_fields()
    if not small:
        methods = _full_assignment(filesystem, ())
        return AssignmentSearchResult(
            methods=methods,
            score=assignment_score(filesystem, methods, p=p),
            evaluations=1,
            history=[(1, 1.0)],
        )
    rng = random.Random(seed)
    cycle = ("I", "U", "IU1")
    paper_start = tuple(cycle[i % 3] for i in range(len(small)))

    best_methods: tuple[str, ...] | None = None
    best_score = -1.0
    evaluations = 0
    history: list[tuple[int, float]] = []

    def consider(small_methods: tuple[str, ...]) -> float:
        nonlocal evaluations, best_methods, best_score
        methods = _full_assignment(filesystem, small_methods)
        score = assignment_score(filesystem, methods, p=p)
        evaluations += 1
        if score > best_score:
            best_score = score
            best_methods = methods
            history.append((evaluations, score))
        return score

    def neighbourhood(current: tuple[str, ...]) -> list[tuple[str, ...]]:
        return [
            current[:position] + (family,) + current[position + 1:]
            for position in range(len(small))
            for family in SMALL_FIELD_FAMILIES
            if family != current[position]
        ]

    from repro.obs import trace_span

    with trace_span(
        "search.hill_climb",
        filesystem=filesystem.describe(),
        restarts=max(1, restarts),
    ) as span:
        for restart in range(max(1, restarts)):
            if restart == 0:
                current = paper_start
            else:
                current = tuple(
                    rng.choice(SMALL_FIELD_FAMILIES) for __ in small
                )
            current_score = consider(current)
            improved = True
            while improved:
                improved = False
                best_neighbour = current
                best_neighbour_score = current_score
                for neighbour in neighbourhood(current):
                    score = consider(neighbour)
                    if score > best_neighbour_score:
                        best_neighbour = neighbour
                        best_neighbour_score = score
                if best_neighbour_score > current_score:
                    current = best_neighbour
                    current_score = best_neighbour_score
                    improved = True
        assert best_methods is not None
        span.set_attr("evaluations", evaluations)
        span.set_attr("score", round(best_score, 6))
    return AssignmentSearchResult(
        methods=best_methods,
        score=best_score,
        evaluations=evaluations,
        history=history,
    )
