"""Fault-tolerant query execution with replica failover and partial results.

:class:`DegradedExecutor` is the runtime counterpart of
:class:`~repro.storage.executor.QueryExecutor`, and the only read that
routes around failed devices: it runs the same inverse mapping per
device, but filters every device interaction through a
:class:`~repro.runtime.faults.FaultPlan` (the record of which devices are
down) and a :class:`~repro.runtime.retry.RetryPolicy`.  A device that is
fail-stopped, exhausts its retries or runs past its timeout is *abandoned*
for the query; its qualified buckets go where
:func:`~repro.distribution.replicated.failover_device` sends them — the
chained backup when the file is a
:class:`~repro.storage.replicated_file.ReplicatedFile` and that backup is
up — and are otherwise reported missing through ``lost_buckets`` and an
explicit ``completeness`` fraction.  Degraded mode never raises for data
it merely cannot reach.

Records are assembled in primary-device order regardless of which replica
served them, so a run whose failures are fully covered by replicas returns
a record list identical to the fault-free run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.distribution.replicated import failover_device
from repro.hashing.fields import Bucket
from repro.obs import telemetry, trace_span
from repro.obs.metrics import default_registry
from repro.runtime.faults import FaultInjector, FaultPlan, retry_episode
from repro.runtime.retry import RetryPolicy
from repro.storage.executor import ExecutionResult, SingleQueryExecutor
from repro.util.numbers import ceil_div

__all__ = ["DegradedExecutionResult", "DegradedExecutor"]


@dataclass
class DegradedExecutionResult(ExecutionResult):
    """An :class:`ExecutionResult` plus the runtime's fault diagnostics.

    ``completeness`` is the fraction of qualified buckets actually served
    (1.0 when every bucket was reachable, directly or via a replica);
    ``timeouts`` counts devices abandoned after a timeout or after
    exhausting their retries.
    """

    completeness: float = 1.0
    failed_devices: tuple[int, ...] = ()
    retries: int = 0
    timeouts: int = 0
    #: Buckets served by a backup replica instead of their primary.
    failovers: int = 0
    #: Qualified buckets no live replica could serve.
    lost_buckets: int = 0

    @property
    def is_complete(self) -> bool:
        return self.lost_buckets == 0

    def to_dict(self) -> dict:
        data = super().to_dict()
        data.update(
            completeness=round(self.completeness, 6),
            failed_devices=sorted(self.failed_devices),
            retries=self.retries,
            timeouts=self.timeouts,
            failovers=self.failovers,
            lost_buckets=self.lost_buckets,
        )
        return data


class DegradedExecutor(SingleQueryExecutor):
    """Executes partial match queries under a fault plan.

    *file* is a :class:`~repro.storage.parallel_file.PartitionedFile` or a
    :class:`~repro.storage.replicated_file.ReplicatedFile`; only the latter
    offers failover (its chained scheme names each bucket's backup).
    ``execute`` and ``execute_box`` (box queries need a separable base
    method) plan exactly as :class:`~repro.storage.executor.QueryExecutor`
    does; every device interaction then goes through the fault plan.

    >>> from repro import FileSystem, FXDistribution, PartitionedFile
    >>> fs = FileSystem.of(4, 4, m=4)
    >>> pf = PartitionedFile(FXDistribution(fs))
    >>> __ = pf.insert((1, 2))
    >>> runtime = DegradedExecutor(pf)          # trivial plan: no faults
    >>> runtime.search({0: 1}).completeness
    1.0
    """

    def __init__(
        self,
        file,
        plan: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
    ):
        self.file = file
        self.filesystem = file.filesystem
        #: Replica scheme when *file* is replicated, else None.
        self.scheme = getattr(file, "scheme", None)
        self.method = self.scheme.base if self.scheme else file.method
        self.plan = plan or FaultPlan.none()
        self.retry = retry or RetryPolicy()
        self.injector = FaultInjector(self.plan, self.filesystem.m)
        self._query_seq = 0

    def search(self, specified) -> DegradedExecutionResult:
        """Convenience: hash raw attribute values, build and run the query."""
        return self.execute(self.file.query(specified))

    # ------------------------------------------------------------------
    # Core loop
    # ------------------------------------------------------------------
    def _run(self, query, qualified_count, assigned_to) -> DegradedExecutionResult:
        seq = self._query_seq
        self._query_seq += 1
        m = self.filesystem.m
        failed = self.plan.failed_devices
        offset = None if self.scheme is None else self.scheme.offset
        result = DegradedExecutionResult(
            query=query, failed_devices=tuple(sorted(failed))
        )
        device_time = [0.0] * m
        served_per_device = [0] * m
        #: Records keyed by *primary* device so the assembled order matches
        #: the fault-free executor even when backups serve some batches.
        records_by_primary: dict[int, list[object]] = {}
        to_failover: list[tuple[int, list[Bucket]]] = []

        with trace_span(
            "runtime.query", query=query.describe(), qualified=qualified_count
        ) as span:
            for device_id in range(m):
                assigned = assigned_to(device_id)
                if not assigned:
                    continue
                if device_id in failed:
                    to_failover.append((device_id, assigned))
                    continue
                attempts, elapsed, busy, served = retry_episode(
                    self.injector,
                    self.retry,
                    device_id,
                    seq,
                    self._batch_time(device_id, len(assigned)),
                    result,
                )
                if attempts > 1:
                    span.add_event(
                        "retry", device=device_id, attempts=attempts
                    )
                device_time[device_id] = busy
                if not served:
                    span.add_event(
                        "timeout",
                        device=device_id,
                        buckets=len(assigned),
                        elapsed_ms=round(elapsed, 6),
                    )
                    to_failover.append((device_id, assigned))
                    continue
                served_per_device[device_id] += len(assigned)
                records_by_primary[device_id] = self.file.devices[
                    device_id
                ].read_buckets(assigned)

            for primary, buckets in to_failover:
                backup = failover_device(primary, failed, m, offset)
                if backup is None:
                    result.lost_buckets += len(buckets)
                    span.add_event(
                        "data_loss", device=primary, buckets=len(buckets)
                    )
                    continue
                result.failovers += len(buckets)
                span.add_event(
                    "failover",
                    device=primary,
                    backup=backup,
                    buckets=len(buckets),
                )
                served_per_device[backup] += len(buckets)
                device_time[backup] += self._batch_time(backup, len(buckets))
                records_by_primary[primary] = self.file.devices[
                    backup
                ].read_buckets(buckets)

            for device_id in range(m):
                result.records.extend(records_by_primary.get(device_id, []))
            result.buckets_per_device = served_per_device
            result.largest_response = max(served_per_device, default=0)
            result.response_time_ms = max(device_time, default=0.0)
            result.total_service_ms = sum(device_time)
            bound = ceil_div(qualified_count, m)
            result.strict_optimal = result.largest_response <= bound
            if qualified_count:
                result.completeness = 1.0 - result.lost_buckets / qualified_count
            if result.completeness < 1.0:
                span.add_event(
                    "degraded", completeness=round(result.completeness, 6)
                )
            span.set_attr("buckets_per_device", list(served_per_device))
            span.set_attr("completeness", round(result.completeness, 6))
            span.set_attr("retries", result.retries)
            span.set_attr("timeouts", result.timeouts)
            span.set_attr("failovers", result.failovers)
            span.set_attr("lost_buckets", result.lost_buckets)
            span.set_attr("response_ms", round(result.response_time_ms, 6))
        metrics = telemetry().metrics
        metrics.observe("runtime.response_ms", result.response_time_ms)
        metrics.observe("runtime.completeness", result.completeness)
        self._record_counters(result)
        return result

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _batch_time(self, device_id: int, bucket_count: int) -> float:
        device = self.file.devices[device_id]
        return device.cost_model.service_time(
            bucket_count
        ) * self.injector.latency_factor(device_id)

    def _record_counters(self, result: DegradedExecutionResult) -> None:
        record = default_registry().record_perf_work
        record("runtime.queries", 1)
        if result.retries:
            record("runtime.retries", result.retries)
        if result.timeouts:
            record("runtime.timeouts", result.timeouts)
        if result.failovers:
            record("runtime.failovers", result.failovers)
        if result.failovers or result.lost_buckets:
            record("runtime.degraded_queries", 1)
