"""Replicated partitioned file: dual writes onto chained replicas.

Pairs :class:`~repro.distribution.replicated.ChainedReplicaScheme` with the
simulated devices: every record is written to its bucket's primary and
backup device, so any one device may fail without losing data.  The file
is storage only.  Which devices are down is a
:class:`~repro.runtime.faults.FaultPlan`'s to say, and
:class:`~repro.runtime.degraded.DegradedExecutor` is the read that routes
around them: with chained placement a failed device's read work lands on
its neighbour, roughly doubling that one device's share rather than (as
with full mirroring onto a single partner) concentrating the entire
failed load.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.distribution.replicated import ChainedReplicaScheme
from repro.errors import StorageError
from repro.hashing.fields import Bucket
from repro.hashing.multikey import MultiKeyHash
from repro.query.partial_match import PartialMatchQuery
from repro.storage.costs import DeviceCostModel
from repro.storage.device import SimulatedDevice
from repro.storage.parallel_file import WriteNotifier

__all__ = ["ReplicatedFile"]


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
        self._logical_records = 0

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

    def lose_device(self, device: int) -> None:
        """Permanent media loss: drop the device's pages.  Only a
        :class:`~repro.durability.DeviceRebuilder` (reconstructing from the
        chained replicas) brings the data back; a read between the loss
        and the rebuild must fail the device in its
        :class:`~repro.runtime.faults.FaultPlan`."""
        if not 0 <= device < self.filesystem.m:
            raise StorageError(f"no device {device}")
        self.devices[device].clear()

    @property
    def record_count(self) -> int:
        """Logical records (each stored twice physically)."""
        return self._logical_records

    def query(self, specified: Mapping[int, object]) -> PartialMatchQuery:
        """The partial match query of raw attribute values (hashed)."""
        hashed = self.multikey_hash.partial_bucket(specified)
        return PartialMatchQuery.from_dict(self.filesystem, hashed)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
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
