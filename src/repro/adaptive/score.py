"""Scoring and searching transform assignments against an observed mix.

The paper proves FX optimality under the *uniform* query model; a live
array sees whatever mix its tenants actually send.  This module closes
the gap (workload-adaptive declustering, DESIGN §4l): score any
candidate FX transform assignment by its **mix-weighted expected load
factor** — the expectation, under an
:class:`~repro.adaptive.EmpiricalQueryModel`, of ``largest response /
ceil(|R(q)|/M)`` — and search the assignment space for the minimiser.

Two candidate spaces, both deterministic per seed:

* the paper's four families per small field (exhaustive when the space is
  ``4**k <= 65536``, steepest-descent hill climbing with restarts beyond),
* optionally, random injective GF(2) matrices (:mod:`repro.core.linear`)
  — the section-6 "more general transformation functions".

Every score is reported next to the **Doerr-style lower bound**: for any
allocation whatsoever, a query with ``|R(q)|`` qualified buckets loads
some device with at least ``ceil(|R(q)|/M)`` of them (the additive-error
lower bounds of Doerr, Hebbinghaus & Werth, "Improved Bounds and Schemes
for the Declustering Problem", sharpen this for grids; the ceiling is the
per-pattern floor their bounds build on).  The mix-weighted bound is the
weighted sum of those floors, so ``gap = E[max load] / bound >= 1`` and
``gap == 1`` means no redistribution of any kind could do better on this
mix.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.adaptive.bridge import EmpiricalQueryModel, unspecified_to_pattern
from repro.analysis.query_model import QueryModel
from repro.analysis.skew import expected_largest_response, expected_load_factor
from repro.core.fx import FXDistribution
from repro.core.transforms import FieldTransform
from repro.distribution.base import SeparableMethod
from repro.distribution.search import (
    MAX_EXHAUSTIVE_SMALL_FIELDS,
    SMALL_FIELD_FAMILIES,
)
from repro.errors import AnalysisError, ConfigurationError
from repro.hashing.fields import FileSystem
from repro.util.numbers import ceil_div

__all__ = [
    "MixScore",
    "mix_lower_bound",
    "score_method",
    "AdaptivePlan",
    "adaptive_transform_search",
]


def mix_lower_bound(filesystem: FileSystem, model: QueryModel) -> float:
    """Mix-weighted lower bound on E[max load]: ``sum w(q) ceil(|R(q)|/M)``.

    Holds for *every* bucket-to-device allocation (Doerr et al.'s bounds
    are additive refinements of the same per-query floor), so it is the
    yardstick every adaptive candidate is measured against.
    """
    total = 0.0
    for pattern in model.patterns(filesystem.n_fields):
        weight = model.pattern_weight(pattern, filesystem.n_fields)
        if weight:
            qualified = math.prod(filesystem.field_sizes[i] for i in pattern)
            total += weight * ceil_div(qualified, filesystem.m)
    return total


@dataclass(frozen=True)
class MixScore:
    """One method's standing under one query mix."""

    expected_load_factor: float
    expected_largest_response: float
    lower_bound: float
    #: Weighted fraction of the mix served strict-optimally.
    optimal_weight: float

    @property
    def gap(self) -> float:
        """``E[max load] / lower bound`` — 1.0 is unimprovable."""
        if self.lower_bound == 0.0:
            return 1.0
        return self.expected_largest_response / self.lower_bound

    def to_dict(self) -> dict:
        return {
            "expected_load_factor": round(self.expected_load_factor, 9),
            "expected_largest_response": round(
                self.expected_largest_response, 9
            ),
            "lower_bound": round(self.lower_bound, 9),
            "gap": round(self.gap, 9),
            "optimal_weight": round(self.optimal_weight, 9),
        }


def score_method(method: SeparableMethod, model: QueryModel) -> MixScore:
    """Mix-weighted skew profile of one method (exact, via convolutions)."""
    from repro.analysis.skew import pattern_load_factor

    fs = method.filesystem
    optimal = 0.0
    for pattern in model.patterns(fs.n_fields):
        weight = model.pattern_weight(pattern, fs.n_fields)
        if weight and pattern_load_factor(method, pattern) <= 1.0:
            optimal += weight
    return MixScore(
        expected_load_factor=expected_load_factor(method, model=model),
        expected_largest_response=expected_largest_response(
            method, model=model
        ),
        lower_bound=mix_lower_bound(fs, model),
        optimal_weight=optimal,
    )


@dataclass
class AdaptivePlan:
    """Outcome of one adaptive search: the winning assignment + evidence.

    ``transforms`` are live :class:`~repro.core.transforms.FieldTransform`
    objects (family or GF(2)-linear), so :meth:`build` reconstructs the
    winning method exactly; ``to_dict`` serialises families by name and
    linear transforms by matrix rows.
    """

    filesystem: FileSystem
    baseline_names: tuple[str, ...]
    baseline: MixScore
    transforms: tuple[FieldTransform, ...]
    candidate: MixScore
    evaluations: int
    moved_fraction: float
    #: (evaluations-so-far, incumbent ELF) whenever the incumbent improved.
    history: list[tuple[int, float]] = field(default_factory=list)

    @property
    def candidate_names(self) -> tuple[str, ...]:
        return tuple(t.method for t in self.transforms)

    @property
    def improvement(self) -> float:
        """Drop in mix-weighted expected load factor (positive = better)."""
        return (
            self.baseline.expected_load_factor
            - self.candidate.expected_load_factor
        )

    @property
    def worthwhile(self) -> bool:
        return self.improvement > 0.0

    def build(self, filesystem: FileSystem | None = None) -> FXDistribution:
        """Instantiate the winning FX method."""
        fs = filesystem if filesystem is not None else self.filesystem
        return FXDistribution(fs, transforms=list(self.transforms))

    def summary(self) -> str:
        return (
            f"adaptive plan on {self.filesystem.describe()}: "
            f"{','.join(self.baseline_names)} -> "
            f"{','.join(self.candidate_names)}, E[load factor] "
            f"{self.baseline.expected_load_factor:.4f} -> "
            f"{self.candidate.expected_load_factor:.4f} "
            f"(gap to lower bound {self.candidate.gap:.4f}), "
            f"moves {100 * self.moved_fraction:.1f}% of buckets"
        )

    def to_dict(self) -> dict:
        matrices = {
            str(i): t.matrix.to_lists()
            for i, t in enumerate(self.transforms)
            if t.method == "LIN"
        }
        return {
            "filesystem": self.filesystem.describe(),
            "baseline": {
                "transforms": list(self.baseline_names),
                "score": self.baseline.to_dict(),
            },
            "candidate": {
                "transforms": list(self.candidate_names),
                "matrices": matrices,
                "score": self.candidate.to_dict(),
            },
            "evaluations": self.evaluations,
            "moved_fraction": round(self.moved_fraction, 9),
            "improvement": round(self.improvement, 9),
            "worthwhile": self.worthwhile,
        }


def _family_elf(
    filesystem: FileSystem,
    small: tuple[int, ...],
    combo: Sequence[str],
    model: QueryModel,
) -> tuple[float, FXDistribution]:
    """Mix-weighted ELF of one per-small-field family choice."""
    methods = ["I"] * filesystem.n_fields
    for index, family in zip(small, combo):
        methods[index] = family
    fx = FXDistribution(filesystem, transforms=methods)
    return expected_load_factor(fx, model=model), fx


def adaptive_transform_search(
    filesystem: FileSystem,
    model: EmpiricalQueryModel | QueryModel,
    baseline: SeparableMethod | None = None,
    restarts: int = 4,
    seed: int = 0,
    linear_draws: int = 0,
) -> AdaptivePlan:
    """Search transform assignments minimising the mix-weighted ELF.

    *baseline* anchors the comparison (default: the paper's round-robin
    FX on *filesystem*) and also seeds the first hill-climbing restart,
    so the search never returns something worse than what is deployed.
    *linear_draws* additionally samples that many random injective GF(2)
    matrix assignments (seeded); the overall incumbent wins.  Ties break
    toward the earliest candidate in enumeration order, which keeps the
    plan — and everything serialised from it — deterministic per seed.
    """
    from repro.obs import trace_span
    from repro.storage.migration import moved_fraction

    if baseline is None:
        baseline = FXDistribution(filesystem)
    if baseline.filesystem != filesystem:
        raise AnalysisError("baseline method targets a different file system")
    small = filesystem.small_fields()

    best_fx: FXDistribution | None = None
    best_elf = float("inf")
    evaluations = 0
    history: list[tuple[int, float]] = []

    def consider(elf: float, fx: FXDistribution) -> None:
        nonlocal best_fx, best_elf, evaluations
        evaluations += 1
        if elf < best_elf:
            best_elf = elf
            best_fx = fx
            history.append((evaluations, elf))

    with trace_span(
        "adaptive.search",
        filesystem=filesystem.describe(),
        model=model.describe(),
        linear_draws=linear_draws,
    ) as span:
        if len(small) <= MAX_EXHAUSTIVE_SMALL_FIELDS:
            for combo in itertools.product(
                SMALL_FIELD_FAMILIES, repeat=len(small)
            ):
                consider(*_family_elf(filesystem, small, combo, model))
        else:
            _hill_climb(
                filesystem, small, model, baseline, restarts, seed, consider
            )
        if linear_draws:
            _linear_draws(filesystem, model, linear_draws, seed, consider)
        assert best_fx is not None
        span.set_attr("evaluations", evaluations)
        span.set_attr("score", round(best_elf, 6))

    baseline_score = score_method(baseline, model)
    candidate_score = score_method(best_fx, model)
    if isinstance(baseline, FXDistribution):
        baseline_names = tuple(t.method for t in baseline.transforms)
    else:
        baseline_names = (baseline.name or type(baseline).__name__,)
    return AdaptivePlan(
        filesystem=filesystem,
        baseline_names=baseline_names,
        baseline=baseline_score,
        transforms=best_fx.transforms,
        candidate=candidate_score,
        evaluations=evaluations,
        moved_fraction=moved_fraction(baseline, best_fx),
        history=history,
    )


def _hill_climb(
    filesystem: FileSystem,
    small: tuple[int, ...],
    model: QueryModel,
    baseline: SeparableMethod,
    restarts: int,
    seed: int,
    consider,
) -> None:
    """Steepest-descent over single-field family changes, seeded restarts."""
    rng = random.Random(seed)
    if isinstance(baseline, FXDistribution):
        start = tuple(
            baseline.transforms[i].method
            if baseline.transforms[i].method in SMALL_FIELD_FAMILIES
            else "I"
            for i in small
        )
    else:
        cycle = ("I", "U", "IU1")
        start = tuple(cycle[i % 3] for i in range(len(small)))
    for restart in range(max(1, restarts)):
        current = (
            start
            if restart == 0
            else tuple(rng.choice(SMALL_FIELD_FAMILIES) for __ in small)
        )
        current_elf, fx = _family_elf(filesystem, small, current, model)
        consider(current_elf, fx)
        improved = True
        while improved:
            improved = False
            best_neighbour = current
            best_neighbour_elf = current_elf
            for position in range(len(small)):
                for family in SMALL_FIELD_FAMILIES:
                    if family == current[position]:
                        continue
                    neighbour = (
                        current[:position]
                        + (family,)
                        + current[position + 1:]
                    )
                    elf, fx = _family_elf(filesystem, small, neighbour, model)
                    consider(elf, fx)
                    if elf < best_neighbour_elf:
                        best_neighbour = neighbour
                        best_neighbour_elf = elf
            if best_neighbour_elf < current_elf:
                current = best_neighbour
                current_elf = best_neighbour_elf
                improved = True


def _linear_draws(
    filesystem: FileSystem,
    model: QueryModel,
    draws: int,
    seed: int,
    consider,
) -> None:
    """Random injective GF(2) matrices for the small fields, seeded."""
    from repro.core.linear import LinearTransform
    from repro.core.transforms import IdentityTransform

    if draws < 0:
        raise ConfigurationError("linear_draws must be non-negative")
    rng = random.Random(seed)
    small = set(filesystem.small_fields())
    for __ in range(draws):
        transforms = [
            LinearTransform.random(size, filesystem.m, rng)
            if i in small
            else IdentityTransform(size, filesystem.m)
            for i, size in enumerate(filesystem.field_sizes)
        ]
        fx = FXDistribution(filesystem, transforms=transforms)
        consider(expected_load_factor(fx, model=model), fx)
