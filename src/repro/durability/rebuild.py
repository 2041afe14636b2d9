"""Rebuilding a permanently lost device from its chained replicas.

Failover (:class:`~repro.runtime.degraded.DegradedExecutor` reading
around the devices a :class:`~repro.runtime.faults.FaultPlan` fails)
survives a device being *down*; this module survives a device being
*gone* — media loss, the scenario replication exists for.  With chained
placement every bucket of the lost device has its other copy on a
neighbour, so :class:`DeviceRebuilder` reconstructs the device
bucket-for-bucket from the survivors and then proves the result:

* ``check_invariants`` — every restored bucket sits on a device the
  replica scheme names, checksums verify,
* the content digest matches what the replicas jointly imply, and
* (optionally) an :class:`~repro.obs.ObservedOptimalityChecker` replay
  shows the restored assignment still meets the paper's strict bound
  ``max_j |R(q) on device j| <= ceil(|R(q)|/M)`` — rebuilding restores
  not just the data but the *declustering quality* the data was placed
  for.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CorruptPageError, RecoveryError, StorageError
from repro.storage.replicated_file import ReplicatedFile

__all__ = ["DeviceRebuilder", "RebuildReport"]


@dataclass
class RebuildReport:
    """Outcome of reconstructing one lost device."""

    device: int = -1
    buckets_restored: int = 0
    records_restored: int = 0
    source_devices: tuple[int, ...] = ()
    optimality_verified: bool | None = None
    optimality_queries: int = 0

    def summary(self) -> str:
        verified = (
            "not checked"
            if self.optimality_verified is None
            else (
                f"strict-optimal over {self.optimality_queries} queries"
                if self.optimality_verified
                else "OPTIMALITY VIOLATION"
            )
        )
        return (
            f"rebuilt device {self.device}: {self.buckets_restored} buckets, "
            f"{self.records_restored} records from devices "
            f"{sorted(self.source_devices)}; bound {verified}"
        )

    def to_dict(self) -> dict:
        return {
            "device": self.device,
            "buckets_restored": self.buckets_restored,
            "records_restored": self.records_restored,
            "source_devices": sorted(self.source_devices),
            "optimality_verified": self.optimality_verified,
            "optimality_queries": self.optimality_queries,
        }


class DeviceRebuilder:
    """Reconstructs a lost device's buckets from the chained replicas.

    >>> from repro.api import make_durable_file
    >>> durable = make_durable_file("fx", fields=(4, 4), devices=4)
    >>> durable.insert_all([(i, 3 - i % 4) for i in range(48)])
    >>> before = durable.state_digest()
    >>> durable.file.lose_device(1)
    >>> report = DeviceRebuilder(durable.file).rebuild(1)
    >>> durable.state_digest() == before
    True
    """

    def __init__(self, file: ReplicatedFile):
        if not isinstance(file, ReplicatedFile):
            raise RecoveryError(
                "device rebuild reconstructs from chained replicas; it "
                f"needs a ReplicatedFile, got {type(file).__name__}"
            )
        self.file = file
        self.scheme = file.scheme

    def rebuild(self, device_id: int, queries=None) -> RebuildReport:
        """Reconstruct *device_id* from its replicas, then verify.

        *queries*, when given, drives an
        :class:`~repro.obs.ObservedOptimalityChecker` replay against the
        scheme's base method after the rebuild (telemetry must be
        enabled for that step).  A surviving replica that fails its own
        checksum aborts the rebuild with
        :class:`~repro.errors.CorruptPageError` — scrub first, then
        rebuild.
        """
        from repro.obs import telemetry, trace_span

        m = self.file.filesystem.m
        if not 0 <= device_id < m:
            raise StorageError(f"no device {device_id}")
        target = self.file.devices[device_id]
        report = RebuildReport(device=device_id)
        sources: set[int] = set()
        with trace_span("rebuild.device", device=device_id) as span:
            target.clear()
            for partner in self.file.devices:
                if partner.device_id == device_id:
                    continue
                for bucket in sorted(partner.store.buckets()):
                    if device_id not in self.scheme.replicas_of(bucket):
                        continue
                    try:
                        records = partner.store.records_in(bucket)
                    except CorruptPageError as error:
                        raise CorruptPageError(
                            f"rebuild source device {partner.device_id} is "
                            f"corrupt ({error}); scrub before rebuilding"
                        ) from None
                    target.replace_bucket(bucket, records)
                    sources.add(partner.device_id)
                    report.buckets_restored += 1
                    report.records_restored += len(records)
            self.file.check_invariants()
            report.source_devices = tuple(sorted(sources))
            span.set_attr("buckets_restored", report.buckets_restored)
            span.set_attr("records_restored", report.records_restored)
            span.add_event(
                "device.rebuilt",
                device=device_id,
                buckets=report.buckets_restored,
                records=report.records_restored,
            )
            if queries is not None:
                queries = list(queries)
                check = self._verify_optimality(queries)
                report.optimality_verified = check
                report.optimality_queries = len(queries)
                span.set_attr("optimality_verified", check)
        metrics = telemetry().metrics
        metrics.add("durability.devices_rebuilt", 1)
        metrics.add("durability.records_restored", report.records_restored)
        return report

    def _verify_optimality(self, queries) -> bool:
        """Replay *queries* through telemetry and judge the strict bound
        on the restored assignment (placement is method-derived, so the
        rebuilt file serves exactly the pre-failure histograms)."""
        from repro.obs import ObservedOptimalityChecker

        check = ObservedOptimalityChecker(self.scheme.base).replay(queries)
        return check.all_strict_optimal and check.consistent
