"""One simulated parallel device with access accounting.

Devices are deliberately dumb: they store buckets, serve bucket reads and
track counters.  The intelligence (which buckets live where, which buckets a
query needs from this device) sits in the distribution method and the
executor — mirroring the paper's claim that each device performs its own
inverse mapping and local retrieval independently.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain

from repro.errors import DeviceFullError
from repro.hashing.fields import Bucket
from repro.obs.metrics import default_registry
from repro.storage.bucket_store import BucketStore
from repro.storage.costs import DeviceCostModel, UnitCostModel

__all__ = ["SimulatedDevice", "DeviceStats"]


@dataclass
class DeviceStats:
    """Cumulative counters of one device."""

    inserts: int = 0
    deletes: int = 0
    bucket_reads: int = 0
    records_returned: int = 0
    busy_time_ms: float = 0.0

    def reset(self) -> None:
        self.inserts = 0
        self.deletes = 0
        self.bucket_reads = 0
        self.records_returned = 0
        self.busy_time_ms = 0.0


class SimulatedDevice:
    """A storage node: a bucket store plus a service-time model.

    *capacity* optionally bounds the record count so tests can exercise the
    overflow path (a real array of 1988 Winchester disks was finite, after
    all).
    """

    def __init__(
        self,
        device_id: int,
        cost_model: DeviceCostModel | None = None,
        capacity: int | None = None,
        store: BucketStore | None = None,
    ):
        self.device_id = device_id
        self.cost_model = cost_model or UnitCostModel()
        self.capacity = capacity
        # Any object with the BucketStore interface works; the B-tree store
        # (repro.storage.btree_store) is the ordered alternative.
        self.store = store if store is not None else BucketStore()
        self.stats = DeviceStats()
        #: Advances after every change to :attr:`store`, so a reader that
        #: caches what the store holds revalidates by comparing epochs.
        #: Every store mutation goes through this device.
        self.epoch = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, bucket: Bucket, record: object) -> None:
        if self.capacity is not None and self.store.record_count >= self.capacity:
            raise DeviceFullError(
                f"device {self.device_id} at capacity ({self.capacity} records)"
            )
        self.store.insert(bucket, record)
        self.stats.inserts += 1
        self.epoch += 1

    def delete(self, bucket: Bucket, record: object) -> bool:
        removed = self.store.delete(bucket, record)
        if removed:
            self.stats.deletes += 1
            self.epoch += 1
        return removed

    def replace_bucket(
        self, bucket: Bucket, records: Iterable[object]
    ) -> None:
        """Set the exact contents of *bucket* (the repair and rebuild
        path)."""
        self.store.replace_bucket(bucket, records)
        self.epoch += 1

    def clear(self) -> None:
        """Drop every stored bucket (media loss)."""
        self.store.clear()
        self.epoch += 1

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    def read_buckets(self, buckets: list[Bucket]) -> list[object]:
        """Serve one retrieval request: return all records of *buckets*.

        Accounts the service time of the whole batch (one logical request,
        as in the paper's one-query-at-a-time model).  With a page-aware
        store (:class:`~repro.storage.paged_store.PagedBucketStore`) the
        cost unit is pages read — overflow chains cost extra — otherwise
        it is buckets touched.
        """
        return list(chain.from_iterable(self.read_grouped(buckets)[0]))

    def read_grouped(
        self, buckets: list[Bucket]
    ) -> tuple[list[tuple[object, ...]], float]:
        """:meth:`read_buckets`, keeping each bucket's records apart.

        Returns one records tuple per bucket, parallel to *buckets*, and
        the service time charged for the request.  Each bucket is read
        from the store once, with the same accounting.
        """
        store = self.store
        grouped = [store.records_in(bucket) for bucket in buckets]
        if hasattr(store, "pages_in"):
            cost_units = sum(store.pages_in(bucket) for bucket in buckets)
        else:
            cost_units = len(buckets)
        returned = sum(map(len, grouped))
        service = self.cost_model.service_time(cost_units)
        self.stats.bucket_reads += len(buckets)
        self.stats.records_returned += returned
        self.stats.busy_time_ms += service
        if buckets:
            metrics = default_registry()
            metrics.add("storage.bucket_reads", len(buckets))
            metrics.add("storage.records_returned", returned)
        return grouped, service

    @property
    def record_count(self) -> int:
        return self.store.record_count

    def state_digest(self) -> str:
        """Canonical content digest of this device's store (any store type)."""
        if hasattr(self.store, "state_digest"):
            return self.store.state_digest()
        from repro.storage.bucket_store import content_digest

        return content_digest(
            (bucket, self.store.records_in(bucket))
            for bucket in self.store.buckets()
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SimulatedDevice(id={self.device_id}, "
            f"records={self.store.record_count}, "
            f"buckets={self.store.bucket_count})"
        )
