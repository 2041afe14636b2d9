"""Empirical optimality checkers for arbitrary distribution methods.

These implement the paper's definitions directly:

* **strict optimal** for query ``q`` — no device holds more than
  ``ceil(|R(q)| / M)`` qualified buckets,
* **k-optimal** — strict optimal for every query with exactly ``k``
  unspecified fields,
* **perfect optimal** — k-optimal for every ``k``.

For separable methods (FX, Modulo, GDM) the histogram shape is
pattern-invariant, so one representative query per pattern settles the whole
class; for arbitrary methods every concrete query must be checked, which the
functions do (guarded by an explicit work budget rather than silently
running forever).
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.distribution.base import DistributionMethod, SeparableMethod
from repro.errors import AnalysisError
from repro.query.partial_match import PartialMatchQuery
from repro.query.patterns import (
    SpecPattern,
    all_patterns,
    patterns_with_k_unspecified,
    queries_for_pattern,
)
from repro.util.numbers import ceil_div

__all__ = [
    "response_histogram",
    "is_strict_optimal",
    "pattern_is_strict_optimal",
    "is_k_optimal",
    "is_perfect_optimal",
    "OptimalityReport",
    "optimality_report",
]

#: Default ceiling on the number of bucket evaluations a single exhaustive
#: check may spend before raising, to keep accidental blow-ups loud.
DEFAULT_WORK_LIMIT = 50_000_000


def response_histogram(
    method: DistributionMethod, query: PartialMatchQuery
) -> list[int]:
    """Per-device qualified-bucket counts for *query* (exact)."""
    return method.response_histogram(query)


def is_strict_optimal(method: DistributionMethod, query: PartialMatchQuery) -> bool:
    """Strict optimality of one concrete query."""
    return method.is_strict_optimal_for(query)


def pattern_is_strict_optimal(
    method: DistributionMethod,
    pattern: Iterable[int],
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> bool:
    """Strict optimality of *every* query sharing one unspecified set.

    Separable methods settle this with one histogram; other methods fall
    back to sweeping all specified-value combinations.
    """
    fields = frozenset(pattern)
    fs = method.filesystem
    if isinstance(method, SeparableMethod):
        from repro.analysis.histograms import evaluator_for

        return evaluator_for(method).is_strict_optimal(fields)
    qualified = math.prod(fs.field_sizes[i] for i in fields)
    specified_combos = fs.bucket_count // qualified
    _check_budget(qualified * specified_combos, work_limit)
    return all(
        method.is_strict_optimal_for(query)
        for query in queries_for_pattern(fs, fields)
    )


def is_k_optimal(
    method: DistributionMethod,
    k: int,
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> bool:
    """The paper's k-optimality: all k-unspecified queries strict optimal."""
    patterns = patterns_with_k_unspecified(method.filesystem.n_fields, k)
    return all(
        pattern_is_strict_optimal(method, pattern, work_limit=work_limit)
        for pattern in patterns
    )


def is_perfect_optimal(
    method: DistributionMethod,
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> bool:
    """Perfect optimality: k-optimal for every k in 0..n."""
    return all(
        pattern_is_strict_optimal(method, pattern, work_limit=work_limit)
        for pattern in all_patterns(method.filesystem.n_fields)
    )


@dataclass
class OptimalityReport:
    """Per-pattern optimality census of one method on one file system.

    ``failures`` lists the non-optimal patterns with their observed and
    permitted maximum loads, most overloaded first.
    """

    method_name: str
    filesystem_description: str
    total_patterns: int = 0
    optimal_patterns: int = 0
    failures: list[tuple[SpecPattern, int, int]] = field(default_factory=list)

    @property
    def optimal_fraction(self) -> float:
        """Share of patterns that are strict optimal, in [0, 1]."""
        if self.total_patterns == 0:
            return 1.0
        return self.optimal_patterns / self.total_patterns

    def summary(self) -> str:
        return (
            f"{self.method_name}: {self.optimal_patterns}/{self.total_patterns} "
            f"patterns strict optimal ({100 * self.optimal_fraction:.1f}%)"
        )


def optimality_report(
    method: DistributionMethod,
    patterns: Iterable[SpecPattern] | None = None,
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> OptimalityReport:
    """Census strict optimality over *patterns* (default: all ``2**n``).

    For separable methods records the exact worst load per failing pattern;
    for others the worst load across the pattern's queries.
    """
    fs = method.filesystem
    report = OptimalityReport(
        method_name=method.name or type(method).__name__,
        filesystem_description=fs.describe(),
    )
    if patterns is None:
        patterns = all_patterns(fs.n_fields)
    separable = isinstance(method, SeparableMethod)
    if separable:
        from repro.analysis.histograms import evaluator_for

        evaluator = evaluator_for(method)

    def worst_load(pattern: SpecPattern) -> int:
        if separable:
            return evaluator.largest_response(pattern)
        qualified = math.prod(fs.field_sizes[i] for i in pattern)
        specified_combos = fs.bucket_count // qualified
        _check_budget(qualified * specified_combos, work_limit)
        return max(
            method.largest_response(query)
            for query in queries_for_pattern(fs, pattern)
        )

    from repro.obs import trace_span

    patterns = list(patterns)
    with trace_span(
        "optimality.census",
        method=report.method_name,
        patterns=len(patterns),
        separable=separable,
    ) as span:
        for pattern in patterns:
            worst = worst_load(pattern)
            report.total_patterns += 1
            qualified = math.prod(fs.field_sizes[i] for i in pattern)
            bound = ceil_div(qualified, fs.m)
            if worst <= bound:
                report.optimal_patterns += 1
            else:
                report.failures.append((pattern, worst, bound))
        report.failures.sort(
            key=lambda item: (-(item[1] - item[2]), sorted(item[0]))
        )
        span.set_attr("optimal_patterns", report.optimal_patterns)
        span.set_attr("failures", len(report.failures))
    return report


def _check_budget(cost: int, work_limit: int) -> None:
    if cost > work_limit:
        raise AnalysisError(
            f"exhaustive check needs ~{cost} bucket evaluations, above the "
            f"work limit of {work_limit}; raise work_limit explicitly to force"
        )
