"""Online migration between distribution methods.

Operators re-decluster: a GDM deployment moves to FX, or a searched
transform assignment replaces the round-robin one.  The currency is the
number of buckets that change devices.  Two tools:

* :func:`moved_fraction` — the *exact* fraction of buckets that move,
  computed without enumerating the grid whenever both methods are
  separable over the same group: the pointwise *difference* of two
  separable device maps is itself separable (contribution
  ``c_a(v) ∘ c_b(v)^{-1}``), so "how many buckets agree" is one convolution
  asking how often the difference map hits the identity.
* :class:`Migration` — plans and applies the move on a live
  :class:`~repro.storage.parallel_file.PartitionedFile`, with accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.histograms import evaluator_for
from repro.distribution.base import DistributionMethod, SeparableMethod
from repro.errors import AnalysisError, StorageError
from repro.hashing.fields import Bucket
from repro.storage.parallel_file import PartitionedFile

__all__ = [
    "moved_fraction",
    "Migration",
    "MigrationReport",
    "RedeclusterAnalysis",
    "redecluster_analysis",
]

#: Grid-size ceiling for the enumeration fallback.
ENUMERATION_LIMIT = 1_000_000


class _DifferenceMethod(SeparableMethod):
    """Separable method computing ``device_a(b) ∘ device_b(b)^{-1}``.

    Maps a bucket to 0 exactly when the two wrapped methods agree on it.
    """

    name = ""

    def __init__(self, a: SeparableMethod, b: SeparableMethod):
        super().__init__(a.filesystem)
        self.combine = a.combine
        self._a = a
        self._b = b
        self._m = a.filesystem.m

    def field_contribution(self, field_index: int, value: int) -> int:
        ca = self._a.field_contribution(field_index, value)
        cb = self._b.field_contribution(field_index, value)
        if self.combine == "xor":
            return ca ^ cb
        return (ca - cb) % self._m


def moved_fraction(
    a: DistributionMethod, b: DistributionMethod
) -> float:
    """Exact fraction of buckets placed differently by *a* and *b*.

    O(n·M log M) when both methods are separable over the same group;
    falls back to grid enumeration (bounded) otherwise.

    >>> from repro import FileSystem, FXDistribution
    >>> from repro.distribution.modulo import ModuloDistribution
    >>> fs = FileSystem.of(8, 8, m=4)
    >>> moved_fraction(FXDistribution(fs), FXDistribution(fs))
    0.0
    """
    if a.filesystem != b.filesystem:
        raise AnalysisError("methods target different file systems")
    fs = a.filesystem
    if (
        isinstance(a, SeparableMethod)
        and isinstance(b, SeparableMethod)
        and a.combine == b.combine
    ):
        difference = _DifferenceMethod(a, b)
        histogram = evaluator_for(difference).histogram(
            frozenset(range(fs.n_fields))
        )
        agreeing = int(histogram[0])
        return 1.0 - agreeing / fs.bucket_count
    if fs.bucket_count > ENUMERATION_LIMIT:
        raise AnalysisError(
            f"grid of {fs.bucket_count} buckets exceeds the enumeration "
            "limit and the methods are not co-separable"
        )
    moved = sum(1 for bucket in fs.buckets() if a.device_of(bucket) != b.device_of(bucket))
    return moved / fs.bucket_count


@dataclass(frozen=True)
class RedeclusterAnalysis:
    """Cost/benefit of migrating a deployment to a new method.

    ``break_even_queries`` is how many queries must run before the
    per-query saving in expected largest response repays the one-time
    migration cost (both denominated in bucket touches); ``inf`` when the
    target is not actually better.
    """

    moved_fraction: float
    expected_largest_before: float
    expected_largest_after: float
    break_even_queries: float

    @property
    def worthwhile(self) -> bool:
        return self.expected_largest_after < self.expected_largest_before


def redecluster_analysis(
    current: SeparableMethod,
    target: SeparableMethod,
    p: float = 0.5,
) -> RedeclusterAnalysis:
    """Should a deployment migrate?  Exact cost/benefit under the
    independence query model.

    Migration cost: every moved bucket is one read plus one write —
    ``2 * moved_fraction * bucket_count`` touches.  Per-query benefit: the
    drop in expected largest response size (the response-time proxy).
    """
    from repro.analysis.skew import expected_largest_response

    fraction = moved_fraction(current, target)
    before = expected_largest_response(current, p=p)
    after = expected_largest_response(target, p=p)
    migration_cost = 2.0 * fraction * current.filesystem.bucket_count
    saving = before - after
    if saving <= 0.0:
        break_even = float("inf")
    elif migration_cost == 0.0:
        break_even = 0.0
    else:
        break_even = migration_cost / saving
    return RedeclusterAnalysis(
        moved_fraction=fraction,
        expected_largest_before=before,
        expected_largest_after=after,
        break_even_queries=break_even,
    )


@dataclass
class MigrationReport:
    """Outcome of applying one migration to a live file."""

    buckets_moved: int = 0
    records_moved: int = 0
    buckets_in_place: int = 0
    moves: list[tuple[Bucket, int, int]] = field(default_factory=list)

    @property
    def moved_record_fraction(self) -> float:
        total = self.records_moved + self._records_in_place
        if total == 0:
            return 0.0
        return self.records_moved / total

    # internal: records that did not move (set by Migration.apply)
    _records_in_place: int = 0


class Migration:
    """Plan and apply a re-declustering of a live partitioned file.

    >>> from repro import FileSystem, FXDistribution
    >>> from repro.distribution.modulo import ModuloDistribution
    >>> fs = FileSystem.of(4, 8, m=4)
    >>> pf = PartitionedFile(ModuloDistribution(fs))
    >>> pf.insert_all([(i, str(i)) for i in range(50)])
    >>> migration = Migration(pf, FXDistribution(fs))
    >>> report = migration.apply()
    >>> pf.method.name
    'fx'
    >>> pf.check_invariants()      # everything sits where FX says
    """

    def __init__(
        self,
        partitioned_file: PartitionedFile,
        target: DistributionMethod,
        wal=None,
    ):
        if target.filesystem != partitioned_file.filesystem:
            raise StorageError(
                "target method targets a different file system"
            )
        self.file = partitioned_file
        self.target = target
        #: Optional :class:`~repro.durability.WriteAheadLog`: each moved
        #: record is logged as an auditable ``move`` entry (replay treats
        #: moves as no-ops — placement is method-derived — but the log
        #: shows exactly what a crashed migration had touched).
        self.wal = wal

    def planned_fraction(self) -> float:
        """Fraction of grid buckets the migration would move (exact)."""
        return moved_fraction(self.file.method, self.target)

    def apply(self) -> MigrationReport:
        """Move every resident bucket to its target device, then switch
        the file's method.

        Planned fully against the pre-move state before any record moves
        (so buckets arriving on a later device are not re-examined), then
        executed bucket-at-a-time through the devices: each moved record
        counts as a delete on its origin and an insert on its destination
        (:class:`~repro.storage.device.DeviceStats`) and advances both
        devices' epochs.  The whole migration, the method swap included,
        holds the file's mutation lock, so a read that takes the same lock
        sees the file entirely before or entirely after it — never a
        bucket that has left the device its method still names.

        With checksummed stores every bucket read verifies its page, so a
        silently corrupted page aborts the migration with
        :class:`~repro.errors.CorruptPageError` before any record of that
        bucket moves (scrub, then migrate).
        """
        from repro.obs import trace_span

        with self.file.read_locked():
            report = MigrationReport()
            source = self.file.method
            planned_moves: list[tuple[Bucket, int, int]] = []
            for device in self.file.devices:
                for bucket in device.store.buckets():
                    origin = source.device_of(bucket)
                    if origin != device.device_id:
                        raise StorageError(
                            f"bucket {bucket} found on device "
                            f"{device.device_id}, method says {origin}; "
                            "file is inconsistent"
                        )
                    destination = self.target.device_of(bucket)
                    if destination == device.device_id:
                        report.buckets_in_place += 1
                        report._records_in_place += len(
                            device.store.records_in(bucket)
                        )
                    else:
                        planned_moves.append(
                            (bucket, device.device_id, destination)
                        )
            with trace_span(
                "migration.apply",
                planned_moves=len(planned_moves),
                target=self.target.name or type(self.target).__name__,
            ) as span:
                for bucket, origin, destination in planned_moves:
                    origin_device = self.file.devices[origin]
                    records = origin_device.store.records_in(bucket)
                    for record in records:
                        origin_device.delete(bucket, record)
                        self.file.devices[destination].insert(bucket, record)
                        if self.wal is not None:
                            self.wal.append("move", record)
                    report.buckets_moved += 1
                    report.records_moved += len(records)
                    report.moves.append((bucket, origin, destination))
                self.file.method = self.target
                span.set_attr("buckets_moved", report.buckets_moved)
                span.set_attr("records_moved", report.records_moved)
        return report
