"""Availability analysis for chained replica placement.

With one backup on the next device, data survives any failure set that
contains no *adjacent pair* (cyclically, at the replica offset).  This
module provides the combinatorics and expectations an operator needs:

* :func:`survivable` — does a concrete failure set lose data?
* :func:`count_survivable_sets` — how many k-failure sets are survivable
  (via the classic cycle-independent-set count),
* :func:`survival_probability` — probability that k random simultaneous
  failures lose nothing,
* :func:`expected_degraded_load_factor` — the read-load multiplier on the
  hottest device with one device down (2.0 under chained placement: the
  neighbour absorbs the whole failed share),
* :func:`reroute_histogram` / :func:`response_time_under_failure` /
  :func:`degraded_response_curve` — the runtime-facing quantities: what a
  query's per-device load, modelled response time and served fraction
  become once a failure set is applied (with or without chained replicas).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations, islice

from repro.distribution.base import DistributionMethod
from repro.distribution.replicated import ChainedReplicaScheme, failover_device
from repro.errors import AnalysisError
from repro.storage.costs import DeviceCostModel, UnitCostModel

__all__ = [
    "survivable",
    "count_survivable_sets",
    "survival_probability",
    "expected_degraded_load_factor",
    "reroute_histogram",
    "response_time_under_failure",
    "DegradedResponsePoint",
    "degraded_response_curve",
]


def survivable(scheme: ChainedReplicaScheme, failed: set[int]) -> bool:
    """True when no bucket has both its replicas in *failed*.

    A bucket's replicas are ``(d, d + offset mod M)``; every device is a
    primary for some bucket whenever the base method is surjective (all
    separable methods here are), so the condition reduces to: the
    failover rule finds a live backup for every failed device.
    """
    m = scheme.filesystem.m
    for device in failed:
        if not 0 <= device < m:
            raise AnalysisError(f"no device {device}")
    return all(
        failover_device(device, failed, m, scheme.offset) is not None
        for device in failed
    )


def count_survivable_sets(m: int, k: int) -> int:
    """Number of k-subsets of a length-m cycle with no adjacent pair.

    Classic identity: ``m / (m - k) * C(m - k, k)`` for ``k < m`` (and 0
    for ``k > m/2`` automatically).  Applies to offset 1; any offset
    coprime to ``m`` relabels the cycle, so the count is the same.

    >>> count_survivable_sets(8, 2)
    20
    """
    if m < 1 or k < 0:
        raise AnalysisError("need m >= 1, k >= 0")
    if k == 0:
        return 1
    if k > m // 2:
        return 0
    return m * math.comb(m - k, k) // (m - k)


def survival_probability(scheme: ChainedReplicaScheme, k: int) -> float:
    """P(no data loss | exactly k uniformly-random devices failed)."""
    m = scheme.filesystem.m
    if not 0 <= k <= m:
        raise AnalysisError(f"k={k} outside [0, {m}]")
    if math.gcd(scheme.offset, m) == 1:
        good = count_survivable_sets(m, k)
    else:
        # offset shares a factor with M: the replica graph splits into
        # gcd cycles; count by brute force (M is small in any deployment
        # where this matters analytically).
        if math.comb(m, k) > 5_000_000:
            raise AnalysisError(
                "brute-force counting too large for this M and k"
            )
        good = sum(
            1
            for failed in combinations(range(m), k)
            if survivable(scheme, set(failed))
        )
    return good / math.comb(m, k)


def expected_degraded_load_factor(scheme: ChainedReplicaScheme) -> float:
    """Hottest-device read multiplier with one failed device.

    Chained placement reroutes the failed device's entire primary share to
    one neighbour.  Under a balanced base distribution every device holds
    ``1/M`` of the reads, so the neighbour serves ``2/M`` — a 2x local
    multiplier independent of ``M`` (full mirroring onto a dedicated pair
    would also be 2x but on *every* query even without failures; striping
    the backup copies differently is the classic refinement).
    """
    if scheme.filesystem.m < 2:
        raise AnalysisError("need at least two devices")
    return 2.0


# ----------------------------------------------------------------------
# Response time and completeness under failures (the runtime's analytics)
# ----------------------------------------------------------------------
def reroute_histogram(
    histogram: list[int],
    failed: set[int],
    offset: int | None = None,
) -> tuple[list[int], int]:
    """Apply a failure set to a per-device response histogram.

    Each failed device's load moves where
    :func:`~repro.distribution.replicated.failover_device` sends it: to
    its chained backup when *offset* is given and that backup is alive,
    else nowhere (the load is *lost*).  Returns ``(degraded histogram,
    lost bucket count)``.

    >>> reroute_histogram([2, 2, 2, 2], {1}, offset=1)
    ([2, 0, 4, 2], 0)
    >>> reroute_histogram([2, 2, 2, 2], {1})
    ([2, 0, 2, 2], 2)
    """
    m = len(histogram)
    if any(not 0 <= d < m for d in failed):
        raise AnalysisError(f"failure set {sorted(failed)} outside [0, {m})")
    degraded = list(histogram)
    lost = 0
    for device in sorted(failed):
        load = degraded[device]
        if load == 0:
            continue
        degraded[device] = 0
        backup = failover_device(device, failed, m, offset)
        if backup is None:
            lost += load
        else:
            degraded[backup] += load
    return degraded, lost


def response_time_under_failure(
    method: DistributionMethod,
    query,
    failed: set[int],
    scheme: ChainedReplicaScheme | None = None,
    cost_model: DeviceCostModel | None = None,
) -> tuple[float, float]:
    """Modelled (response time, completeness) of one query under failures.

    Response time is the paper's max-over-devices service time, computed
    on the degraded histogram; *scheme* (built over *method*) enables the
    chained failover re-route.
    """
    if scheme is not None and scheme.base is not method:
        raise AnalysisError(
            "the replica scheme must be built over the analysed method"
        )
    cost_model = cost_model or UnitCostModel()
    histogram = method.response_histogram(query)
    qualified = sum(histogram)
    degraded, lost = reroute_histogram(
        histogram, set(failed), None if scheme is None else scheme.offset
    )
    response = max(
        (cost_model.service_time(count) for count in degraded), default=0.0
    )
    completeness = 1.0 - lost / qualified if qualified else 1.0
    return response, completeness


@dataclass(frozen=True)
class DegradedResponsePoint:
    """One point of a degraded-operation curve: k failures and the means."""

    k: int
    survival: float
    mean_response_ms: float
    mean_completeness: float

    def row(self) -> list:
        return [
            self.k,
            round(self.survival, 4),
            round(self.mean_response_ms, 2),
            round(self.mean_completeness, 4),
        ]


def _failure_sets(m: int, k: int, max_sets: int, seed: int):
    """All k-subsets when few, else a seeded sample of distinct ones."""
    total = math.comb(m, k)
    if total <= max_sets:
        return [set(s) for s in combinations(range(m), k)]
    rng = random.Random(seed)
    seen: set[frozenset[int]] = set()
    while len(seen) < max_sets:
        seen.add(frozenset(rng.sample(range(m), k)))
    return [set(s) for s in islice(sorted(seen, key=sorted), max_sets)]


def degraded_response_curve(
    method: DistributionMethod,
    queries,
    k_values,
    scheme: ChainedReplicaScheme | None = None,
    cost_model: DeviceCostModel | None = None,
    max_sets: int = 20,
    seed: int = 0,
) -> list[DegradedResponsePoint]:
    """Mean response time and completeness as failures accumulate.

    For each ``k`` the failure sets are enumerated exhaustively when there
    are at most *max_sets* of them and sampled (seeded) otherwise; every
    set is crossed with every query in *queries*.  ``survival`` is the
    exact no-data-loss probability under chained replication, and the
    all-or-nothing ``k == 0`` indicator without replicas.
    """
    m = method.filesystem.m
    queries = list(queries)
    if not queries:
        raise AnalysisError("need at least one query")
    points = []
    for k in k_values:
        if not 0 <= k <= m:
            raise AnalysisError(f"k={k} outside [0, {m}]")
        if scheme is not None:
            survival = survival_probability(scheme, k)
        else:
            survival = 1.0 if k == 0 else 0.0
        responses: list[float] = []
        completenesses: list[float] = []
        for failure_set in _failure_sets(m, k, max_sets, seed):
            for query in queries:
                response, completeness = response_time_under_failure(
                    method, query, failure_set, scheme, cost_model
                )
                responses.append(response)
                completenesses.append(completeness)
        points.append(
            DegradedResponsePoint(
                k=k,
                survival=survival,
                mean_response_ms=sum(responses) / len(responses),
                mean_completeness=sum(completenesses) / len(completenesses),
            )
        )
    return points
