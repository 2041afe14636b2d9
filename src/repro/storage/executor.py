"""Partial match query execution over a partitioned file.

Execution follows the paper's parallel model: every device independently
performs *inverse mapping* (derives which qualified buckets it holds, via
the method's algebraic solver when available) and serves them locally; with
a symmetric interconnect the query completes when the most-loaded device
finishes, so the modelled response time is the maximum per-device service
time.  The executor reports both the retrieved records and the load/timing
diagnostics the paper's evaluation is built on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.core.inverse import separable_qualified_on_device
from repro.distribution.base import DistributionMethod, SeparableMethod
from repro.envelope import SCHEMA_VERSION
from repro.hashing.fields import Bucket
from repro.obs import telemetry, trace_span
from repro.obs.events import _Deferred
from repro.query.partial_match import PartialMatchQuery, _describe_values
from repro.storage.parallel_file import PartitionedFile
from repro.util.numbers import ceil_div

__all__ = ["ExecutionResult", "QueryExecutor", "SingleQueryExecutor"]


@dataclass
class ExecutionResult:
    """Outcome and diagnostics of one partial match execution."""

    query: PartialMatchQuery
    records: list[object] = field(default_factory=list)
    #: Qualified buckets assigned to each device (by inverse mapping).
    buckets_per_device: list[int] = field(default_factory=list)
    #: Max of buckets_per_device — the paper's largest response size.
    largest_response: int = 0
    #: Modelled wall time: max over devices of their service time.
    response_time_ms: float = 0.0
    #: Sum over devices (what a single-device system would pay).
    total_service_ms: float = 0.0
    strict_optimal: bool = False
    #: Execution provenance: ``"serial"`` (one query through
    #: :class:`QueryExecutor`) or ``"batched"`` (assembled by the array
    #: engine, :class:`repro.engine.BatchEngine`).  Results are
    #: byte-identical either way; the marker lets ``obs check`` and the
    #: CLI tell which path served a query.
    mode: str = "serial"

    @property
    def speedup(self) -> float:
        """Parallel speedup over serial execution of the same work.

        Degenerate cases are reported honestly: no work at all (both times
        zero) is a neutral 1.0, but non-zero serial work finished in zero
        modelled response time is unbounded speedup, not 1.0.
        """
        if self.response_time_ms == 0.0:
            return float("inf") if self.total_service_ms > 0.0 else 1.0
        return self.total_service_ms / self.response_time_ms

    def to_dict(self) -> dict:
        """JSON-ready summary: every diagnostic, records by count only.

        The single marshalling point shared by the CLI's ``--json`` output,
        the simulator and the fault runtime — subclasses extend it rather
        than re-listing fields.  The leading ``"v"`` is the process-wide
        envelope version (:mod:`repro.envelope`), shared with the gateway
        wire protocol and ``obs export``.
        """
        return {
            "v": SCHEMA_VERSION,
            "query": self.query.describe(),
            "records": len(self.records),
            "buckets_per_device": list(self.buckets_per_device),
            "largest_response": self.largest_response,
            "response_time_ms": round(self.response_time_ms, 6),
            "total_service_ms": round(self.total_service_ms, 6),
            "speedup": round(self.speedup, 6),
            "strict_optimal": self.strict_optimal,
            "mode": self.mode,
        }

    def summary(self) -> str:
        return (
            f"{self.query.describe()}: {len(self.records)} records, "
            f"largest response {self.largest_response}, "
            f"time {self.response_time_ms:.2f} ms "
            f"({'strict optimal' if self.strict_optimal else 'skewed'})"
        )


class SingleQueryExecutor:
    """The plan step shared by the single-query executors.

    :meth:`execute` and :meth:`execute_box` resolve, per device, the
    qualified buckets that device holds (the method's inverse mapping) and
    hand that plan to the subclass's device loop ``_run``:
    :class:`QueryExecutor` serves every device, while
    :class:`~repro.runtime.degraded.DegradedExecutor` filters them through
    a fault plan.  Subclasses provide :attr:`method`.
    """

    method: DistributionMethod

    def execute(self, query: PartialMatchQuery) -> ExecutionResult:
        """Run one query through every device and assemble the result.

        A separable method plans through the reference iterator, not the
        per-pattern solver behind :meth:`QueryExecutor.fetch_buckets`, so
        this oracle checks served reads against an independent
        implementation.
        """
        method = self.method
        plan = method.qualified_on_device
        if isinstance(method, SeparableMethod):
            method._check_query(query)
            plan = partial(separable_qualified_on_device, method)

        def assigned_to(device_id: int) -> list[Bucket]:
            return list(plan(device_id, query))

        return self._run(query, query.qualified_count, assigned_to)

    def execute_box(self, box) -> ExecutionResult:
        """Run a :class:`~repro.query.box.BoxQuery` (ranges / IN-lists).

        Requires a separable method (the algebraic box inverse mapping);
        the result's ``query`` field carries the box itself.
        """
        from repro.analysis.box import box_qualified_on_device

        method = self.method

        def assigned_to(device_id: int) -> list[Bucket]:
            return list(box_qualified_on_device(method, device_id, box))

        return self._run(box, box.qualified_count, assigned_to)

    def _run(self, query, qualified_count: int, assigned_to) -> ExecutionResult:
        raise NotImplementedError


class QueryExecutor(SingleQueryExecutor):
    """Executes partial match queries against a :class:`PartitionedFile`.

    The serial reference oracle: :meth:`execute` and :meth:`execute_box`
    serve one device after another.  :meth:`fetch_buckets` is the
    single-query read behind the result cache's misses and the uncached
    :class:`~repro.service.frontend.QueryService`.
    """

    def __init__(self, partitioned_file: PartitionedFile):
        self.file = partitioned_file

    @property
    def method(self) -> DistributionMethod:
        return self.file.method

    def fetch_buckets(
        self, query: PartialMatchQuery
    ) -> tuple[dict[Bucket, tuple[object, ...]], int]:
        """Bucket-grouped records of *query* and the write version they
        reflect: the single-query counterpart of
        :meth:`repro.engine.batch.BatchEngine.fetch_buckets`.

        Every qualified bucket maps to its records (``()`` when empty) and
        is read from its store once.  The read, and the choice of method
        that places the buckets, run under the file's mutation lock, so
        the snapshot is a well-defined write-version prefix, never a torn
        mix with a concurrent insert or migration.  The
        ``query.execute`` span carries the query, its qualified count and
        the per-device bucket counts.
        """
        buckets: dict[Bucket, tuple[object, ...]] = {}
        buckets_per_device = []
        with trace_span(
            "query.execute",
            query=_Deferred(_describe_values, query.values),
            qualified=query.qualified_count,
        ) as span:
            with self.file.read_locked():
                method = self.method
                for device in self.file.devices:
                    assigned = list(
                        method.qualified_on_device(device.device_id, query)
                    )
                    grouped, __ = device.read_grouped(assigned)
                    buckets.update(zip(assigned, grouped))
                    buckets_per_device.append(len(assigned))
                version = self.file.write_version
            span.set_attr("buckets_per_device", buckets_per_device)
        return buckets, version

    def _run(self, query, qualified_count: int, assigned_to) -> ExecutionResult:
        result = ExecutionResult(query=query)
        with trace_span(
            "query.execute", query=query.describe(), qualified=qualified_count
        ) as span:
            for device in self.file.devices:
                assigned = assigned_to(device.device_id)
                records = device.read_buckets(assigned)
                service = device.cost_model.service_time(len(assigned))
                result.records.extend(records)
                result.buckets_per_device.append(len(assigned))
                result.total_service_ms += service
                result.response_time_ms = max(result.response_time_ms, service)
                span.add_event(
                    "device",
                    device=device.device_id,
                    buckets=len(assigned),
                    service_ms=round(service, 6),
                )
            result.largest_response = max(result.buckets_per_device, default=0)
            bound = ceil_div(qualified_count, self.file.filesystem.m)
            result.strict_optimal = result.largest_response <= bound
            # The paper's metric, observed: per-device qualified buckets and
            # the modelled response, straight into the telemetry store.
            span.set_attr("buckets_per_device", list(result.buckets_per_device))
            span.set_attr("largest_response", result.largest_response)
            span.set_attr("strict_optimal", result.strict_optimal)
            span.set_attr("response_ms", round(result.response_time_ms, 6))
        metrics = telemetry().metrics
        metrics.add("query.executed")
        metrics.add("query.buckets_read", sum(result.buckets_per_device))
        metrics.observe("query.response_ms", result.response_time_ms)
        metrics.observe("query.largest_response", result.largest_response)
        return result
