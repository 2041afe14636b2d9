"""Query models: probability distributions over specification patterns.

The paper's evaluation assumes one query model — every field independently
specified with probability ``p`` — and every closed-form expectation in
:mod:`repro.analysis.skew` was historically hard-wired to it.  Closing the
workload-adaptive declustering loop (DESIGN §4l) needs a second model:
the *observed* pattern distribution a :class:`~repro.obs.QueryMixProfile`
records.  This module defines the small interface both share:

* :class:`QueryModel` — ``pattern_weight`` (probability of one unspecified
  set) plus ``patterns`` (the support, in a deterministic order), and
* :class:`IndependenceModel` — the paper's model, delegating to
  :func:`repro.analysis.optim_prob.pattern_probability`.

The empirical counterpart lives in :mod:`repro.adaptive.bridge`
(:class:`~repro.adaptive.EmpiricalQueryModel`), built from observed
indicator patterns; both plug into
:func:`~repro.analysis.skew.expected_largest_response` and
:func:`~repro.analysis.skew.expected_load_factor` via their ``model=``
argument.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterator

from repro.query.patterns import SpecPattern, all_patterns

__all__ = ["QueryModel", "IndependenceModel"]


class QueryModel(ABC):
    """A probability distribution over the ``2**n`` specification patterns.

    Weights are expected to sum to 1 over :meth:`patterns` (the analysis
    functions do not renormalise); a model may put zero weight on most
    patterns, in which case :meth:`patterns` should enumerate only the
    support so sweeps stay proportional to it.
    """

    @abstractmethod
    def pattern_weight(self, pattern: SpecPattern, n_fields: int) -> float:
        """Probability of a query having *pattern* as its unspecified set."""

    @abstractmethod
    def patterns(self, n_fields: int) -> Iterator[SpecPattern]:
        """The model's support, in a deterministic order."""

    def describe(self) -> str:
        """Human-readable one-liner for reports."""
        return type(self).__name__


class IndependenceModel(QueryModel):
    """The paper's model: each field specified independently with prob. *p*.

    >>> model = IndependenceModel(0.5)
    >>> model.pattern_weight(frozenset({0}), 2)
    0.25
    """

    def __init__(self, p: float = 0.5):
        # Validation happens in pattern_probability on first use as well,
        # but failing at construction gives the better error site.
        from repro.analysis.optim_prob import pattern_probability

        pattern_probability(frozenset(), 1, p)
        self.p = p

    def pattern_weight(self, pattern: SpecPattern, n_fields: int) -> float:
        from repro.analysis.optim_prob import pattern_probability

        return pattern_probability(pattern, n_fields, self.p)

    def patterns(self, n_fields: int) -> Iterator[SpecPattern]:
        return all_patterns(n_fields)

    def describe(self) -> str:
        return f"independence(p={self.p})"
