"""Bridging observed indicator patterns to the analysis convention.

Two pattern conventions coexist in this codebase:

* the **obs layer** canonicalises a query's shape as an indicator string
  over the field order — ``"1*1"`` means fields 0 and 2 specified, field 1
  unspecified (:func:`repro.obs.profile.pattern_of_query`), because that is
  what serialises compactly into profiles and JSONL exports;
* the **analysis layer** works with the frozenset of *unspecified* field
  indices (:data:`repro.query.patterns.SpecPattern`), because that is what
  the convolution evaluator and the optimality theorems consume.

This module is the seam between them: loss-free conversions both ways,
plus :class:`EmpiricalQueryModel` — the observed-mix counterpart of the
paper's :class:`~repro.analysis.query_model.IndependenceModel` — which
turns a :class:`~repro.obs.QueryMixProfile` into pattern weights that plug
straight into :func:`~repro.analysis.skew.expected_largest_response` /
:func:`~repro.analysis.skew.expected_load_factor` and the adaptive
transform search (:mod:`repro.adaptive.score`).
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

from repro.analysis.query_model import QueryModel
from repro.errors import AnalysisError
from repro.obs.profile import (
    QueryMixProfile,
    TenantProfile,
    _parse_json,
    _walkable,
)
from repro.query.patterns import SpecPattern

__all__ = [
    "pattern_to_unspecified",
    "unspecified_to_pattern",
    "EmpiricalQueryModel",
    "load_profile",
]


def pattern_to_unspecified(pattern: str, n_fields: int) -> SpecPattern:
    """Indicator string → frozenset of unspecified field indices.

    >>> sorted(pattern_to_unspecified("1*1", 3))
    [1]
    """
    if len(pattern) != n_fields:
        raise AnalysisError(
            f"pattern {pattern!r} names {len(pattern)} fields, "
            f"file system has {n_fields}"
        )
    unspecified = set()
    for index, cell in enumerate(pattern):
        if cell == "*":
            unspecified.add(index)
        elif cell != "1":
            raise AnalysisError(
                f"pattern {pattern!r} holds {cell!r} at field {index}; "
                "expected '1' (specified) or '*' (unspecified)"
            )
    return frozenset(unspecified)


def unspecified_to_pattern(unspecified: SpecPattern, n_fields: int) -> str:
    """Frozenset of unspecified field indices → indicator string.

    Exact inverse of :func:`pattern_to_unspecified` over every pattern of
    an ``n_fields``-field grid (property-tested in ``tests/test_adaptive``).

    >>> unspecified_to_pattern(frozenset({1}), 3)
    '1*1'
    """
    for index in unspecified:
        if not 0 <= index < n_fields:
            raise AnalysisError(
                f"pattern names field {index}, file system has {n_fields}"
            )
    return "".join(
        "*" if index in unspecified else "1" for index in range(n_fields)
    )


class EmpiricalQueryModel(QueryModel):
    """The observed query mix as a :class:`QueryModel`.

    Weights are the relative frequencies of the observed patterns;
    :meth:`patterns` enumerates exactly the support (sorted by unspecified
    count, then indices — deterministic), so analysis sweeps touch only
    patterns that actually occurred.

    >>> model = EmpiricalQueryModel.from_counts({"1*": 3, "*1": 1}, 2)
    >>> model.pattern_weight(frozenset({1}), 2)
    0.75
    """

    def __init__(self, weights: Mapping[SpecPattern, float], n_fields: int):
        if not weights:
            raise AnalysisError("empirical query model with no patterns")
        total = 0.0
        for pattern, weight in weights.items():
            for index in pattern:
                if not 0 <= index < n_fields:
                    raise AnalysisError(
                        f"pattern names field {index}, file system has "
                        f"{n_fields}"
                    )
            if weight < 0:
                raise AnalysisError(f"negative pattern weight {weight}")
            total += weight
        if total <= 0.0:
            raise AnalysisError("empirical query model with zero total weight")
        self.n_fields = n_fields
        self._weights = {
            frozenset(pattern): weight / total
            for pattern, weight in weights.items()
            if weight > 0
        }

    # ------------------------------------------------------------------
    # Constructors from the obs layer
    # ------------------------------------------------------------------
    @classmethod
    def from_counts(
        cls, counts: Mapping[str, int | float], n_fields: int
    ) -> "EmpiricalQueryModel":
        """Build from ``{indicator pattern: count}`` (profile convention)."""
        return cls(
            {
                pattern_to_unspecified(pattern, n_fields): float(count)
                for pattern, count in counts.items()
            },
            n_fields,
        )

    @classmethod
    def from_profile(
        cls,
        profile: QueryMixProfile | TenantProfile,
        n_fields: int,
        tenant: str | None = None,
    ) -> "EmpiricalQueryModel":
        """Build from a query-mix profile.

        With a :class:`QueryMixProfile`, *tenant* selects one tenant's mix;
        ``None`` aggregates across all tenants (the whole-array view an
        operator re-declusters for).
        """
        if isinstance(profile, TenantProfile):
            counts: dict[str, int] = dict(profile.patterns)
        elif tenant is not None:
            found = profile.tenants.get(tenant)
            if found is None:
                raise AnalysisError(
                    f"profile has no tenant {tenant!r}; "
                    f"known: {sorted(profile.tenants)}"
                )
            counts = dict(found.patterns)
        else:
            counts = {}
            for entry in profile.tenants.values():
                for pattern, count in entry.patterns.items():
                    counts[pattern] = counts.get(pattern, 0) + count
        if not counts:
            raise AnalysisError("profile holds no observed queries")
        return cls.from_counts(counts, n_fields)

    # ------------------------------------------------------------------
    # QueryModel interface
    # ------------------------------------------------------------------
    def pattern_weight(self, pattern: SpecPattern, n_fields: int) -> float:
        self._check_fields(n_fields)
        return self._weights.get(frozenset(pattern), 0.0)

    def patterns(self, n_fields: int) -> Iterator[SpecPattern]:
        self._check_fields(n_fields)
        yield from sorted(
            self._weights, key=lambda pattern: (len(pattern), sorted(pattern))
        )

    def frequencies(self) -> dict[str, float]:
        """Indicator pattern → weight, sorted (the serialisable view)."""
        as_strings = {
            unspecified_to_pattern(pattern, self.n_fields): weight
            for pattern, weight in self._weights.items()
        }
        return {pattern: as_strings[pattern] for pattern in sorted(as_strings)}

    def describe(self) -> str:
        return f"empirical({len(self._weights)} patterns)"

    def _check_fields(self, n_fields: int) -> None:
        if n_fields != self.n_fields:
            raise AnalysisError(
                f"model built for {self.n_fields} fields, asked about "
                f"{n_fields}"
            )


def load_profile(path: str) -> QueryMixProfile:
    """Load a query-mix profile from disk — the offline adaptation feed.

    Accepts either serialisation the obs CLI produces:

    * a canonical profile document (``QueryMixProfile.to_json()``), or
    * an ``obs export`` JSONL trace, aggregated via
      :meth:`QueryMixProfile.from_records` — so ``obs export --jsonl`` is
      all a deployment needs to feed ``adapt``.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as error:
        raise AnalysisError(f"{path}: not UTF-8 text: {error}") from None
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise AnalysisError(f"{path}: empty profile/export file")
    documents = []
    for number, line in enumerate(lines, start=1):
        document = _parse_json(line, f"{path} line {number}")
        if not isinstance(document, dict):
            raise AnalysisError(f"{path}: expected JSON objects per line")
        if document.get("type") == "span" and not _walkable(document):
            raise AnalysisError(
                f"{path} line {number}: a span record needs integer "
                "trace, id and parent (or null) and an attrs object"
            )
        documents.append(document)
    if documents[0].get("type") == "profile":
        return QueryMixProfile.from_dict(documents[0])
    return QueryMixProfile.from_records(documents)
