"""Replicated partitioned file: dual writes, failure masking, degraded reads.

Pairs :class:`~repro.distribution.replicated.ChainedReplicaScheme` with the
simulated devices: every record is written to its bucket's primary and
backup device; reads go to the primary unless it is marked failed, in which
case the backup serves them.  One device may fail without losing data; a
second failure that hits a primary/backup pair raises
:class:`~repro.errors.DataUnavailableError`.

The interesting measurement is the *degraded* load profile: with chained
placement a failed device's read work lands on its neighbour, roughly
doubling that one device's share rather than (as with full mirroring onto a
single partner) concentrating the entire failed load. The executor reports
per-device bucket counts so experiments can see exactly that.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.distribution.replicated import ChainedReplicaScheme
from repro.errors import DataUnavailableError, StorageError
from repro.hashing.fields import Bucket
from repro.hashing.multikey import MultiKeyHash
from repro.query.partial_match import PartialMatchQuery
from repro.storage.costs import DeviceCostModel
from repro.storage.device import SimulatedDevice
from repro.storage.executor import ExecutionResult
from repro.storage.parallel_file import WriteNotifier
from repro.util.numbers import ceil_div

__all__ = ["DataUnavailableError", "ReplicatedExecutionResult", "ReplicatedFile"]


@dataclass
class ReplicatedExecutionResult(ExecutionResult):
    """Outcome of one query against a (possibly degraded) replicated file.

    Extends the plain :class:`~repro.storage.executor.ExecutionResult` with
    the one quantity replication adds: how many buckets the backups served.
    """

    served_by_backup: int = 0

    def to_dict(self) -> dict:
        data = super().to_dict()
        data["served_by_backup"] = self.served_by_backup
        return data


class ReplicatedFile(WriteNotifier):
    """A partitioned file with one chained backup copy per bucket.

    >>> from repro import FileSystem, FXDistribution
    >>> fs = FileSystem.of(4, 4, m=4)
    >>> rf = ReplicatedFile(ChainedReplicaScheme(FXDistribution(fs)))
    >>> bucket = rf.insert((7, "blue"))
    >>> rf.record_count           # one logical record, two physical copies
    1
    """

    def __init__(
        self,
        scheme: ChainedReplicaScheme,
        multikey_hash: MultiKeyHash | None = None,
        cost_model: DeviceCostModel | None = None,
        store_factory=None,
    ):
        super().__init__()
        self.scheme = scheme
        self.filesystem = scheme.filesystem
        self.multikey_hash = multikey_hash or MultiKeyHash.default(self.filesystem)
        self.devices = [
            SimulatedDevice(
                d,
                cost_model=cost_model,
                store=store_factory() if store_factory else None,
            )
            for d in range(self.filesystem.m)
        ]
        self._failed: set[int] = set()
        self._logical_records = 0

    # ------------------------------------------------------------------
    # Failure control
    # ------------------------------------------------------------------
    def fail_device(self, device: int) -> None:
        """Mark a device failed; its primaries are served by backups."""
        if not 0 <= device < self.filesystem.m:
            raise StorageError(f"no device {device}")
        self._failed.add(device)

    def restore_device(self, device: int) -> None:
        """Bring a failed device back (its data was never dropped here —
        the simulation models unavailability, not media loss)."""
        self._failed.discard(device)

    def lose_device(self, device: int) -> None:
        """Permanent media loss: drop the device's pages *and* mark it
        failed.  Unlike :meth:`fail_device`, the data is gone — only a
        :class:`~repro.durability.DeviceRebuilder` (reconstructing from the
        chained replicas) brings the device back."""
        if not 0 <= device < self.filesystem.m:
            raise StorageError(f"no device {device}")
        self.devices[device].clear()
        self._failed.add(device)

    @property
    def failed_devices(self) -> frozenset[int]:
        return frozenset(self._failed)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def insert(self, record: Sequence[object]) -> Bucket:
        return self.insert_versioned(record)[0]

    def insert_versioned(self, record: Sequence[object]) -> tuple[Bucket, int]:
        """:meth:`insert`, also returning the write version this mutation
        was assigned (atomic; reading :attr:`write_version` afterwards is
        racy under concurrent writers)."""
        bucket = self.multikey_hash.bucket_of(record)
        primary, backup = self.scheme.replicas_of(bucket)
        with self.read_locked():
            self.devices[primary].insert(bucket, tuple(record))
            self.devices[backup].insert(bucket, tuple(record))
            self._logical_records += 1
            version = self._publish(bucket)
        return bucket, version

    def insert_all(self, records: Sequence[Sequence[object]]) -> None:
        for record in records:
            self.insert(record)

    def delete(self, record: Sequence[object]) -> bool:
        """Remove one stored copy of *record* from both replicas.

        Both replicas must agree: a record present on exactly one copy
        means the file has silently diverged, which is an invariant
        violation, not a normal miss.
        """
        bucket = self.multikey_hash.bucket_of(record)
        primary, backup = self.scheme.replicas_of(bucket)
        with self.read_locked():
            removed_primary = self.devices[primary].delete(bucket, tuple(record))
            removed_backup = self.devices[backup].delete(bucket, tuple(record))
            if removed_primary != removed_backup:
                raise StorageError(
                    f"replica divergence deleting {record!r}: primary removed "
                    f"{removed_primary}, backup removed {removed_backup}"
                )
            if removed_primary:
                self._logical_records -= 1
                self._publish(bucket)
        return removed_primary

    @property
    def record_count(self) -> int:
        """Logical records (each stored twice physically)."""
        return self._logical_records

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _serving_device(self, bucket: Bucket) -> tuple[int, bool]:
        """(device, is_backup) that serves *bucket* right now."""
        primary, backup = self.scheme.replicas_of(bucket)
        if primary not in self._failed:
            return primary, False
        if backup not in self._failed:
            return backup, True
        raise DataUnavailableError(
            f"bucket {bucket}: both replicas (devices {primary}, {backup}) "
            "are failed"
        )

    def query(self, specified: Mapping[int, object]) -> PartialMatchQuery:
        hashed = self.multikey_hash.partial_bucket(specified)
        return PartialMatchQuery.from_dict(self.filesystem, hashed)

    def execute(self, query: PartialMatchQuery) -> ReplicatedExecutionResult:
        """Run one partial match query with failure masking.

        Buckets are routed per current failure state, grouped per device
        and served in one batch each (as the plain executor does).
        """
        per_device: dict[int, list[Bucket]] = {
            d: [] for d in range(self.filesystem.m)
        }
        served_by_backup = 0
        for bucket in query.qualified_buckets():
            device, is_backup = self._serving_device(bucket)
            per_device[device].append(bucket)
            served_by_backup += is_backup
        result = ReplicatedExecutionResult(
            query=query, served_by_backup=served_by_backup
        )
        for device_id, buckets in per_device.items():
            device = self.devices[device_id]
            records = device.read_buckets(buckets) if buckets else []
            # a record may be read from the backup copy only; dedupe is not
            # needed because each bucket is read from exactly one replica
            result.records.extend(records)
            result.buckets_per_device.append(len(buckets))
            service = device.cost_model.service_time(len(buckets))
            result.total_service_ms += service
            result.response_time_ms = max(result.response_time_ms, service)
        result.largest_response = max(result.buckets_per_device, default=0)
        bound = ceil_div(query.qualified_count, self.filesystem.m)
        result.strict_optimal = result.largest_response <= bound
        return result

    def search(self, specified: Mapping[int, object]) -> ReplicatedExecutionResult:
        return self.execute(self.query(specified))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def degraded_histogram(self, query: PartialMatchQuery) -> list[int]:
        """Per-device qualified-bucket counts under the current failures."""
        counts = [0] * self.filesystem.m
        for bucket in query.qualified_buckets():
            device, __ = self._serving_device(bucket)
            counts[device] += 1
        return counts

    def state_digest(self) -> str:
        """Canonical digest of the whole file (per-device digests in device
        order); equal digests mean byte-identical replica contents."""
        import hashlib

        digest = hashlib.sha256()
        for device in self.devices:
            digest.update(device.state_digest().encode("ascii"))
        return digest.hexdigest()

    def check_invariants(self) -> None:
        """Every stored bucket must sit on one of its two replica devices."""
        for device in self.devices:
            device.store.check_invariants()
            for bucket in device.store.buckets():
                if device.device_id not in self.scheme.replicas_of(bucket):
                    raise StorageError(
                        f"bucket {bucket} on device {device.device_id}, "
                        f"replicas are {self.scheme.replicas_of(bucket)}"
                    )
