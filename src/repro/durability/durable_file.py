"""Write-ahead-logged files and crash recovery by replay.

:class:`DurableFile` puts a :class:`~repro.durability.wal.WriteAheadLog`
in front of a :class:`~repro.storage.parallel_file.PartitionedFile` or
:class:`~repro.storage.replicated_file.ReplicatedFile`: every insert and
delete is framed into the log *before* it is applied to any device.  A
simulated crash (the WAL's :class:`~repro.durability.wal.CrashPoint`
firing) therefore leaves the log holding exactly the mutations that were
durably acknowledged; :func:`recover` replays them into a fresh file.

The acceptance property — proved over *every* crash boundary in
``tests/test_durability.py`` — is byte-identity: for a crash at record
boundary ``k``, the recovered file's :meth:`state_digest` equals that of
a fault-free run of the first ``k`` mutations.  Replay re-derives every
bucket address and device placement from the file's own multi-key hash
and distribution method, so recovery also re-validates placement: a
recovered file passes ``check_invariants`` or recovery itself fails.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.durability.wal import CrashPoint, WriteAheadLog
from repro.errors import RecoveryError
from repro.hashing.fields import Bucket

__all__ = ["DurableFile", "RecoveryReport", "recover"]


@dataclass
class RecoveryReport:
    """Outcome of one WAL replay into a fresh file."""

    entries_replayed: int = 0
    inserts: int = 0
    deletes: int = 0
    moves_skipped: int = 0
    torn_bytes: int = 0
    digest: str = ""

    @property
    def had_torn_tail(self) -> bool:
        return self.torn_bytes > 0

    def summary(self) -> str:
        torn = (
            f", torn tail of {self.torn_bytes} bytes discarded"
            if self.had_torn_tail
            else ""
        )
        return (
            f"recovered {self.entries_replayed} WAL entries "
            f"({self.inserts} inserts, {self.deletes} deletes{torn})"
        )

    def to_dict(self) -> dict:
        return {
            "entries_replayed": self.entries_replayed,
            "inserts": self.inserts,
            "deletes": self.deletes,
            "moves_skipped": self.moves_skipped,
            "torn_bytes": self.torn_bytes,
            "had_torn_tail": self.had_torn_tail,
            "digest": self.digest,
        }


def recover(wal: WriteAheadLog | bytes, file) -> RecoveryReport:
    """Replay a (possibly crash-truncated) WAL into *file*.

    *file* must be freshly constructed — replaying on top of existing
    state would double-apply the log.  *wal* may be a live
    :class:`WriteAheadLog` (e.g. the one a :class:`DurableFile` held when
    its crash point fired) or raw serialised bytes.  Emits one
    ``recovery.replay`` span with a ``wal.torn_tail`` event when a torn
    frame was discarded.
    """
    from repro.obs import telemetry, trace_span

    if isinstance(wal, (bytes, bytearray)):
        wal = WriteAheadLog.from_bytes(bytes(wal))
    if file.record_count != 0:
        raise RecoveryError(
            f"recovery target already holds {file.record_count} records; "
            "replay needs a fresh file"
        )
    entries, torn = wal.scan()
    torn += wal.torn_bytes_discarded
    report = RecoveryReport(torn_bytes=torn)
    with trace_span("recovery.replay", entries=len(entries)) as span:
        for entry in entries:
            if entry.op == "insert":
                file.insert(entry.record)
                report.inserts += 1
            elif entry.op == "delete":
                file.delete(entry.record)
                report.deletes += 1
            else:
                report.moves_skipped += 1
            report.entries_replayed += 1
        if torn:
            span.add_event("wal.torn_tail", bytes=torn)
        file.check_invariants()
        report.digest = file.state_digest()
        span.set_attr("inserts", report.inserts)
        span.set_attr("deletes", report.deletes)
        span.set_attr("torn_bytes", torn)
    telemetry().metrics.add("durability.wal_replayed", report.entries_replayed)
    if torn:
        telemetry().metrics.add("durability.torn_tails", 1)
    return report


class DurableFile:
    """A partitioned or replicated file fronted by a write-ahead log.

    It logs writes only.  Reads go to :attr:`file`, through a
    :class:`~repro.runtime.degraded.DegradedExecutor` (whose fault plan
    names any failed devices) or, for a partitioned file, a
    :class:`~repro.storage.executor.QueryExecutor`.

    >>> from repro.api import make_durable_file
    >>> durable = make_durable_file("fx", fields=(4, 4), devices=4)
    >>> __ = durable.insert((3, 1))
    >>> durable.wal.entry_count
    1
    """

    def __init__(self, file, wal: WriteAheadLog | None = None):
        self.file = file
        self.wal = wal if wal is not None else WriteAheadLog()

    # ------------------------------------------------------------------
    # Logged mutations
    # ------------------------------------------------------------------
    def insert(self, record: Sequence[object]) -> Bucket:
        """Log, then apply.  If the WAL's crash point fires, the record was
        neither logged nor applied — the crash lands exactly on the record
        boundary, which is what makes every-offset recovery exact."""
        self.wal.append_insert(record)
        return self.file.insert(record)

    def insert_all(self, records: Sequence[Sequence[object]]) -> None:
        for record in records:
            self.insert(record)

    def delete(self, record: Sequence[object]) -> bool:
        self.wal.append_delete(record)
        return self.file.delete(record)

    # ------------------------------------------------------------------
    # Introspection and recovery
    # ------------------------------------------------------------------
    @property
    def filesystem(self):
        return self.file.filesystem

    @property
    def devices(self):
        return self.file.devices

    @property
    def record_count(self) -> int:
        return self.file.record_count

    @property
    def crashed(self) -> bool:
        return self.wal.crashed

    def state_digest(self) -> str:
        return self.file.state_digest()

    def check_invariants(self) -> None:
        self.file.check_invariants()

    def recover_into(self, fresh_file) -> RecoveryReport:
        """Replay this file's WAL into *fresh_file* (crash recovery)."""
        return recover(self.wal, fresh_file)

    def arm_crash(self, after_records: int, torn_tail: bool = False) -> None:
        """Arm a deterministic crash at a future WAL record boundary."""
        self.wal.crash = CrashPoint(after_records, torn_tail=torn_tail)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DurableFile({self.file!r}, wal={self.wal!r})"
