"""Workload-adaptive declustering: close the loop from observation to action.

Workload-adaptive declustering (DESIGN §4l) end to end.  The obs layer
measures *what is actually asked* (:class:`~repro.obs.QueryMixProfile`);
this package turns that measurement into a better transform assignment
and applies it without losing data:

``bridge``
    Convert between the obs layer's indicator patterns (``"1*1"``) and
    the analysis layer's frozenset-of-unspecified-fields convention, and
    wrap an observed mix as an :class:`EmpiricalQueryModel` that plugs
    into the exact skew analysis.
``score``
    Mix-weighted expected-load-factor scoring, the Doerr-style lower
    bound (and the gap to it), and the adaptive transform search over
    family assignments and random GF(2) matrices.
``hotswap``
    Apply the winning plan to a live :class:`~repro.durability.
    DurableFile` through the WAL-audited migration path, then re-verify
    optimality from telemetry.

CLI: ``repro adapt score|plan|apply``.
"""

from repro.adaptive.bridge import (
    EmpiricalQueryModel,
    load_profile,
    pattern_to_unspecified,
    unspecified_to_pattern,
)
from repro.adaptive.hotswap import (
    AdaptiveSwapReport,
    apply_plan,
    content_digest_of,
    representative_queries,
)
from repro.adaptive.score import (
    AdaptivePlan,
    MixScore,
    adaptive_transform_search,
    mix_lower_bound,
    score_method,
)

__all__ = [
    "pattern_to_unspecified",
    "unspecified_to_pattern",
    "EmpiricalQueryModel",
    "load_profile",
    "MixScore",
    "mix_lower_bound",
    "score_method",
    "AdaptivePlan",
    "adaptive_transform_search",
    "AdaptiveSwapReport",
    "content_digest_of",
    "representative_queries",
    "apply_plan",
]
