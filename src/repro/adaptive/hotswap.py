"""Crash-safe application of an adaptive plan to a live durable file.

The last mile of workload-adaptive declustering (DESIGN §4l): once
:func:`~repro.adaptive.score.adaptive_transform_search` has found a
better transform assignment for the observed mix, actually moving a
deployment onto it must not be the step that loses data.
:func:`apply_plan` therefore routes the swap through the existing
durability machinery rather than around it:

* the bucket moves run as a :class:`~repro.storage.migration.Migration`
  wired to the file's own write-ahead log, so every relocated record is
  an auditable ``move`` entry — and a crash mid-migration leaves a WAL
  whose replay (:func:`~repro.durability.durable_file.recover`) still
  reconstructs the full record set, because replay re-derives placement
  from the file's method and treats moves as no-ops;
* after the swap the file's invariants are re-checked and its
  content digest compared — a migration relocates records, it must not
  create or drop any;
* finally the claimed optimality is *re-verified from telemetry*: an
  :class:`~repro.obs.checker.ObservedOptimalityChecker` replays one
  representative query per observed pattern against the swapped method,
  so the report's "optimal" bit reflects what the executor actually did,
  not what the search predicted.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adaptive.score import AdaptivePlan, MixScore, score_method
from repro.analysis.query_model import QueryModel
from repro.durability.durable_file import DurableFile
from repro.errors import AnalysisError
from repro.hashing.fields import FileSystem
from repro.query.partial_match import PartialMatchQuery
from repro.query.patterns import representative_query

__all__ = [
    "AdaptiveSwapReport",
    "content_digest_of",
    "representative_queries",
    "apply_plan",
]


def content_digest_of(file) -> str:
    """Placement-independent content digest of a partitioned file.

    ``state_digest`` folds in *which device* holds each bucket — exactly
    what a migration changes on purpose — so the swap's "no records
    created or dropped" check hashes the ``(bucket, records)`` pairs
    themselves, pooled across devices.
    """
    from repro.storage.bucket_store import content_digest

    return content_digest(
        (bucket, device.store.records_in(bucket))
        for device in file.devices
        for bucket in device.store.buckets()
    )


def representative_queries(
    filesystem: FileSystem, model: QueryModel
) -> list[PartialMatchQuery]:
    """One query per observed pattern (hashed value 0 on specified fields).

    FX device loads are pattern-invariant — every query of a pattern has
    the same response histogram up to device relabeling — so one
    representative per pattern suffices to verify the bound for the whole
    mix.
    """
    return [
        representative_query(filesystem, pattern)
        for pattern in model.patterns(filesystem.n_fields)
        if model.pattern_weight(pattern, filesystem.n_fields)
    ]


@dataclass
class AdaptiveSwapReport:
    """Everything an operator needs to trust (or roll back) one hot-swap."""

    before: MixScore
    after: MixScore
    buckets_moved: int
    records_moved: int
    #: ``move`` entries appended to the WAL — the audit trail of the swap.
    wal_moves: int
    digest_before: str
    digest_after: str
    #: Weighted share of the mix served strict-optimally, re-measured
    #: from telemetry after the swap (None when verification was skipped).
    verified_queries: int
    verified_strict_optimal: bool | None
    verified_consistent: bool | None

    @property
    def content_preserved(self) -> bool:
        """The swap relocated records without creating or dropping any."""
        return self.digest_before == self.digest_after

    @property
    def improvement(self) -> float:
        return self.before.expected_load_factor - self.after.expected_load_factor

    @property
    def verified(self) -> bool:
        """Content preserved and telemetry confirms the observed mix is
        served strict-optimally by the swapped method."""
        return bool(
            self.content_preserved
            and self.verified_strict_optimal
            and self.verified_consistent
        )

    def summary(self) -> str:
        verdict = (
            "verified strict optimal from telemetry"
            if self.verified
            else "verification "
            + ("skipped" if self.verified_strict_optimal is None else "FAILED")
        )
        return (
            f"hot-swap moved {self.records_moved} records in "
            f"{self.buckets_moved} buckets ({self.wal_moves} WAL move "
            f"entries), E[load factor] {self.before.expected_load_factor:.4f}"
            f" -> {self.after.expected_load_factor:.4f}, {verdict}"
        )

    def to_dict(self) -> dict:
        return {
            "before": self.before.to_dict(),
            "after": self.after.to_dict(),
            "buckets_moved": self.buckets_moved,
            "records_moved": self.records_moved,
            "wal_moves": self.wal_moves,
            "content_preserved": self.content_preserved,
            "improvement": round(self.improvement, 9),
            "verified_queries": self.verified_queries,
            "verified_strict_optimal": self.verified_strict_optimal,
            "verified_consistent": self.verified_consistent,
            "verified": self.verified,
        }


def apply_plan(
    durable: DurableFile,
    plan: AdaptivePlan,
    model: QueryModel,
    require_improvement: bool = True,
    verify: bool = True,
) -> AdaptiveSwapReport:
    """Hot-swap *durable* onto the plan's winning method, crash-safely.

    The WAL the file already owns audits the migration (``move`` entries);
    arming a crash point on it (``durable.arm_crash``) before calling this
    exercises the crash path — recovery replays the log into a fresh file
    and lands on the pre-swap content digest, moves skipped.

    With *verify* (default), requires telemetry
    (``repro.obs.configure(enabled=True)``) and replays one representative
    query per observed pattern through the real executor afterwards.
    """
    from repro.obs.checker import ObservedOptimalityChecker
    from repro.storage.migration import Migration
    from repro.storage.parallel_file import PartitionedFile

    if not isinstance(durable.file, PartitionedFile):
        raise AnalysisError(
            "adaptive hot-swap needs a partitioned file; replicated files "
            "re-decluster replica by replica"
        )
    if durable.filesystem != plan.filesystem:
        raise AnalysisError("plan was searched for a different file system")
    if require_improvement and not plan.worthwhile:
        raise AnalysisError(
            "plan does not improve the mix-weighted expected load factor "
            f"(baseline {plan.baseline.expected_load_factor:.6f}, candidate "
            f"{plan.candidate.expected_load_factor:.6f}); "
            "pass require_improvement=False to force the swap"
        )

    before = score_method(durable.file.method, model)
    digest_before = content_digest_of(durable.file)
    target = plan.build(durable.filesystem)
    wal_before = durable.wal.entry_count
    migration = Migration(durable.file, target, wal=durable.wal)
    report = migration.apply()
    durable.check_invariants()
    digest_after = content_digest_of(durable.file)
    after = score_method(durable.file.method, model)

    verified_strict: bool | None = None
    verified_consistent: bool | None = None
    verified_queries = 0
    if verify:
        checker = ObservedOptimalityChecker(durable.file.method)
        check = checker.replay(
            representative_queries(durable.filesystem, model)
        )
        verified_strict = check.all_strict_optimal
        verified_consistent = check.consistent
        verified_queries = check.queries

    return AdaptiveSwapReport(
        before=before,
        after=after,
        buckets_moved=report.buckets_moved,
        records_moved=report.records_moved,
        wal_moves=durable.wal.entry_count - wal_before,
        digest_before=digest_before,
        digest_after=digest_after,
        verified_queries=verified_queries,
        verified_strict_optimal=verified_strict,
        verified_consistent=verified_consistent,
    )
