"""The array-native batch engine: many queries, one pass over the devices.

:class:`BatchEngine` executes a batch of partial match queries against a
:class:`~repro.storage.parallel_file.PartitionedFile` and returns, per
query, an :class:`~repro.storage.executor.ExecutionResult` **byte-identical**
to what the serial :class:`~repro.storage.executor.QueryExecutor` produces
— same records in the same order, same per-device bucket counts, same
modelled times — while touching each (device, bucket) pair at most once for
the whole batch:

1. *Plan.*  :class:`~repro.engine.plan.ArrayBatchPlanner` dedupes the batch
   by signature and builds one request stream: every distinct query's
   flat bucket addresses in serial order, each gathered from its
   pattern's cached plan with devices relabelled by the query's fold.
   The engine plans with the file's current method, under the file's
   mutation lock, so a migration cannot swap the method between the plan
   and the reads.
2. *Fetch.*  Under the same lock (one consistent snapshot) the whole
   stream is looked up once against the devices' *present* sets — the
   sorted flat addresses of each device's stored buckets, cached per
   device and relisted only when the device's ``epoch`` has moved, so a
   write relists the one device it changed.  On domains up to
   ``BITMAP_DOMAIN_LIMIT`` the lookup is one gather from a domain-sized
   array the engine keeps in step with the present sets; above it, one
   ``searchsorted`` into their sorted union.  The hits are deduplicated
   once, and every device, in order, reads its share in ascending
   address order through
   :meth:`~repro.storage.device.SimulatedDevice.read_grouped`, the read
   serial execution uses: the same store reads (and CRC checks), device
   stats and ``storage.*`` counters.
3. *Route.*  Outside the lock, the hits, still in stream order, are cut
   into one run per slot, so a slot's buckets come out in the serial
   order (device 0..M-1, buckets in enumeration order, store insertion
   order within a bucket).
   :meth:`BatchEngine.execute` concatenates their records and recomputes
   service times from the *planned* per-device counts with the device's
   own cost model, accumulated in device order, so the floats come out
   bit-equal to serial execution; :meth:`BatchEngine.fetch_buckets`
   returns them as bucket maps.

Failure semantics: a store that verifies its pages (e.g.
:class:`~repro.durability.checksummed_store.ChecksummedBucketStore`) raises
on the first corrupt bucket any query in the batch needs — the batch is one
operation, so one bad page fails the batch, where serial execution would
fail only the queries touching it.  The present set uses
``tracked_buckets()`` when available so a dropped page (checksum left
behind) is still read — and still detected — rather than silently skipped.

Telemetry: one ``query.batch`` span per call carrying a ``per_query``
attribute (query, qualified count, per-device buckets) that
``ObservedOptimalityChecker`` can audit exactly like serial
``query.execute`` spans, plus ``engine.*`` counters and histograms.  The
span keeps ``per_query`` as the plan's count matrix and the distinct
queries' value tuples, and renders it only when it is read.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter

import numpy as np

from repro.engine.plan import ArrayBatchPlan, ArrayBatchPlanner
from repro.hashing.fields import Bucket
from repro.obs import telemetry, trace_span
from repro.obs.clock import now as _now
from repro.obs.events import _Deferred
from repro.query.partial_match import PartialMatchQuery, _describe_values
from repro.storage.executor import ExecutionResult
from repro.storage.parallel_file import PartitionedFile
from repro.util.numbers import ceil_div

__all__ = ["BatchEngine", "BatchExecutionReport"]

#: One slot's fetched buckets: ``(bucket, records)`` pairs in serial order.
_Hits = list[tuple[Bucket, tuple[object, ...]]]


@dataclass
class BatchExecutionReport:
    """Per-query results plus batch-level read accounting."""

    #: One result per submitted query (duplicates get their own copies),
    #: each byte-identical to serial execution of that query.
    results: list[ExecutionResult] = field(default_factory=list)
    #: Bucket probes a query-at-a-time run of the batch would make.
    naive_reads: int = 0
    #: Probes after dropping duplicate queries (serial model, per query).
    planned_reads: int = 0
    #: Distinct (device, bucket) pairs the engine actually touched.
    unique_reads: int = 0
    #: Modelled batch wall time: max per-device service time over each
    #: device's deduplicated read set.
    response_time_ms: float = 0.0
    duplicates_removed: int = 0
    plan_ms: float = 0.0
    fetch_ms: float = 0.0

    @property
    def sharing_factor(self) -> float:
        """Naive probes over deduplicated reads (1.0 = no overlap)."""
        if self.unique_reads == 0:
            return 1.0
        return self.naive_reads / self.unique_reads

    @property
    def reads_saved(self) -> int:
        return self.naive_reads - self.unique_reads

    def to_dict(self) -> dict:
        return {
            "queries": len(self.results),
            "duplicates_removed": self.duplicates_removed,
            "naive_reads": self.naive_reads,
            "planned_reads": self.planned_reads,
            "unique_reads": self.unique_reads,
            "sharing_factor": round(self.sharing_factor, 6),
            "response_time_ms": round(self.response_time_ms, 6),
            "results": [result.to_dict() for result in self.results],
        }


class _PresentSet:
    """One device's stored buckets, flat-encoded and sorted.

    ``flats`` is the sorted int64 array of flat addresses; ``buckets[k]``
    is the tuple address of ``flats[k]`` (what the local store is keyed
    by).  Valid while the device's ``epoch`` still equals ``epoch``.
    """

    __slots__ = ("epoch", "flats", "buckets")

    def __init__(self, epoch: int, flats: np.ndarray, buckets: list[Bucket]):
        self.epoch = epoch
        self.flats = flats
        self.buckets = buckets


class BatchEngine:
    """Batched, array-native query execution over a partitioned file.

    >>> from repro import FileSystem, FXDistribution
    >>> fs = FileSystem.of(4, 4, m=4)
    >>> pf = PartitionedFile(FXDistribution(fs))
    >>> __ = pf.insert((1, 2))
    >>> engine = BatchEngine(pf)
    >>> q = pf.query({0: 1})
    >>> report = engine.execute([q, q])    # duplicate planned once
    >>> report.duplicates_removed, len(report.results)
    (1, 2)
    >>> report.results[0].records == report.results[1].records
    True
    """

    def __init__(self, partitioned_file: PartitionedFile):
        self.file = partitioned_file
        self.planner = ArrayBatchPlanner(partitioned_file.method)
        fs = partitioned_file.filesystem
        self._present: list[_PresentSet | None] = [None] * fs.m
        #: Bitmap path: ``_where[flat]`` is ``device * domain + k + 1`` for
        #: the bucket at position *k* of its device's present set, 0 for a
        #: bucket no device stores.  The one domain-sized buffer the engine
        #: holds; it is read and updated only under the file's lock.
        self._where: np.ndarray | None = None
        domain = self.planner.domain
        if domain <= ArrayBatchPlanner.BITMAP_DOMAIN_LIMIT:
            self._where = np.zeros(
                domain, dtype=np.int32 if fs.m * domain < 2**31 else np.int64
            )
        #: Sort path: every stored flat address, sorted, with its entry
        #: number (see :meth:`_locate`); rebuilt after a present set changes.
        self._sorted: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self, queries: Sequence[PartialMatchQuery]
    ) -> BatchExecutionReport:
        """Run the whole batch in one planning + one fetch pass."""
        report = BatchExecutionReport()
        if not queries:
            return report
        with trace_span("query.batch", queries=len(queries)) as span:
            started = _now()
            plan, hits, __, report.response_time_ms, report.plan_ms = (
                self._fetch(queries, span)
            )
            report.fetch_ms = (_now() - started) * 1000.0 - report.plan_ms
            report.naive_reads = plan.naive_bucket_reads
            report.planned_reads = plan.planned_reads
            report.unique_reads = plan.unique_reads
            report.duplicates_removed = plan.duplicates_removed
            report.results = self._fan_out(plan, self._assemble(plan, hits))
            span.set_attr("response_ms", round(report.response_time_ms, 6))
            span.set_attr(
                "sharing_factor", round(report.sharing_factor, 6)
            )
            span.set_attr("per_query", _per_query(plan))
        metrics = telemetry().metrics
        metrics.add("engine.batches")
        metrics.add("engine.queries", len(queries))
        metrics.add("engine.unique_reads", report.unique_reads)
        metrics.add("engine.reads_saved", report.reads_saved)
        metrics.observe("engine.batch_size", len(queries))
        metrics.observe("engine.plan_ms", report.plan_ms)
        metrics.observe("engine.fetch_ms", report.fetch_ms)
        return report

    def fetch_buckets(
        self, queries: Sequence[PartialMatchQuery]
    ) -> tuple[list[dict[Bucket, tuple[object, ...]]], int]:
        """Bucket-grouped records per query, one batched device pass.

        The cache-fill primitive behind
        :meth:`repro.storage.cache.CachedExecutor.lookup_batch`: returns
        one ``{bucket: records}`` mapping per query — non-empty buckets
        only, which :class:`~repro.storage.cache.CachedLookup` treats the
        same as explicit empties — and the write version the snapshot
        reflects.  Duplicate queries share one planned fetch but get
        independent mappings.
        """
        if not queries:
            return [], self.file.write_version
        with trace_span("query.batch", queries=len(queries)) as span:
            plan, hits, version, __, __ = self._fetch(queries, span)
            span.set_attr("per_query", _per_query(plan))
        return [dict(hits[slot]) for slot in plan.slot_of], version

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _current_planner(self) -> ArrayBatchPlanner:
        """The planner for the file's current method
        (:meth:`~repro.storage.migration.Migration.apply` swaps it).

        The present sets survive a method change: their flat encoding
        depends only on the file system, and the buckets a migration
        moves advance the epochs of the devices they leave and reach.
        """
        method = self.file.method
        if self.planner.method is not method:
            self.planner = ArrayBatchPlanner(method)
        return self.planner

    def _refresh(self) -> list[_PresentSet]:
        """Every device's present set, relisted only where the device's
        epoch has moved (every store mutation goes through the device
        and advances it), with the lookup structures kept in step.

        Uses ``tracked_buckets()`` when the store offers it so buckets
        whose page was lost but whose checksum survives are still probed —
        and their corruption surfaced — exactly as a serial read would.
        """
        present = self._present
        stale = [
            device
            for device in self.file.devices
            if present[device.device_id] is None
            or present[device.device_id].epoch != device.epoch
        ]
        if not stale:
            return present
        where = self._where
        # Drop every stale entry before setting any new one: a migration
        # moves buckets between devices that are all stale.
        for device in stale:
            old = present[device.device_id]
            if old is not None and where is not None:
                where[old.flats] = 0
            present[device.device_id] = None
        domain, strides = self.planner.domain, self.planner.strides
        for device in stale:
            d = device.device_id
            store = device.store
            tracked = getattr(store, "tracked_buckets", None)
            buckets = list(tracked() if tracked else store.buckets())
            if buckets:
                flats = np.asarray(buckets, dtype=np.int64) @ strides
                order = np.argsort(flats, kind="stable")
                flats = flats[order]
                buckets = [buckets[k] for k in order.tolist()]
            else:
                flats = np.empty(0, dtype=np.int64)
            present[d] = _PresentSet(device.epoch, flats, buckets)
            if where is not None:
                first = d * domain + 1
                where[flats] = np.arange(first, first + flats.size)
        self._sorted = None
        return present

    def _locate(
        self, stream: np.ndarray, present: list[_PresentSet], starts: list[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Look the whole stream up once.

        Returns the ascending stream positions whose bucket a device
        stores, and each one's entry number: ``starts[d] + k`` for the
        bucket at rank *k* of device *d*'s present set, so entry order is
        device order, then address order.
        """
        where = self._where
        if where is not None:
            codes = where[stream]
            hit_at = np.flatnonzero(codes)
            devices, ranks = np.divmod(
                codes[hit_at].astype(np.int64) - 1, self.planner.domain
            )
            return hit_at, np.asarray(starts)[devices] + ranks
        if self._sorted is None:
            flats = np.concatenate([p.flats for p in present])
            # Sorted positions in the device-major concatenation are the
            # entry numbers.
            entries = np.argsort(flats, kind="stable")
            self._sorted = (flats[entries], entries)
        flats, entries = self._sorted
        if not flats.size:
            return entries, entries
        at = np.minimum(np.searchsorted(flats, stream), flats.size - 1)
        hit_at = np.flatnonzero(flats[at] == stream)
        return hit_at, entries[at[hit_at]]

    def _fetch(
        self, queries: Sequence[PartialMatchQuery], span
    ) -> tuple[ArrayBatchPlan, list[_Hits], int, float, float]:
        """Plan *queries*, read each device's needed, stored buckets once
        and route them to the slots that planned them.

        The method, the plan, the present sets and the reads come from one
        section under the file's mutation lock, so they all reflect the
        same placement and write version; routing runs after it.

        Returns the plan; per distinct slot, its ``(bucket, records)``
        pairs in serial order; the write version the reads reflect; the
        modelled batch response time — the largest service time a device
        was charged for its deduplicated read set (page-aware when the
        store is); and the planning wall time in ms.
        """
        response = 0.0
        fetched: list[tuple[Bucket, tuple[object, ...]]] = []
        with self.file.read_locked():
            started = _now()
            plan = self._current_planner().plan(queries)
            plan_ms = (_now() - started) * 1000.0
            span.set_attr("distinct", len(plan.distinct))
            span.set_attr("planned_reads", plan.planned_reads)
            span.set_attr("unique_reads", plan.unique_reads)
            version = self.file.write_version
            present = self._refresh()
            starts = [0]
            for p in present:
                starts.append(starts[-1] + p.flats.size)
            hit_at, entries = self._locate(plan.stream, present, starts)
            # The distinct entries, ascending: each device's read set, in
            # device order and, within it, address order.
            needed, which = np.unique(entries, return_inverse=True)
            bounds = np.searchsorted(needed, starts).tolist()
            needed = needed.tolist()
            for device in self.file.devices:
                d = device.device_id
                first, held = starts[d], present[d].buckets
                buckets = [
                    held[k - first] for k in needed[bounds[d]:bounds[d + 1]]
                ]
                grouped, service = device.read_grouped(buckets)
                response = max(response, service)
                fetched.extend(zip(buckets, grouped))
        # Hits are in stream order, so each slot's run of the stream is one
        # run of hits, already in serial order.
        routed = [fetched[k] for k in which.tolist()]
        slot_ends = np.cumsum(plan.counts.sum(axis=1))
        cuts = [0, *np.searchsorted(hit_at, slot_ends).tolist()]
        hits = [
            routed[cuts[slot]:cuts[slot + 1]]
            for slot in range(len(plan.distinct))
        ]
        return plan, hits, version, response, plan_ms

    def _assemble(
        self, plan: ArrayBatchPlan, hits: list[_Hits]
    ) -> list[ExecutionResult]:
        """Rebuild each distinct query's serial-identical result."""
        m = self.file.filesystem.m
        results: list[ExecutionResult] = []
        # Service times are a pure function of (device, planned count) and
        # counts repeat heavily across slots — memoise, floats stay
        # bit-equal to per-call computation.
        service_memo: dict[tuple[int, int], float] = {}
        records_of = itemgetter(1)
        for slot, slot_hits in enumerate(hits):
            query = plan.queries[plan.distinct[slot]]
            result = ExecutionResult(query=query, mode="batched")
            result.records = list(
                chain.from_iterable(map(records_of, slot_hits))
            )
            planned_row = plan.counts[slot].tolist()
            total = 0.0
            response = 0.0
            for device in self.file.devices:
                # The serial model charges every planned probe, present or
                # not — identical floats come from identical counts.
                key = (device.device_id, planned_row[device.device_id])
                service = service_memo.get(key)
                if service is None:
                    service = device.cost_model.service_time(key[1])
                    service_memo[key] = service
                total += service
                if service > response:
                    response = service
            result.buckets_per_device = planned_row
            result.total_service_ms = total
            result.response_time_ms = response
            result.largest_response = max(planned_row, default=0)
            bound = ceil_div(query.qualified_count, m)
            result.strict_optimal = result.largest_response <= bound
            results.append(result)
        return results

    def _fan_out(
        self, plan: ArrayBatchPlan, distinct_results: list[ExecutionResult]
    ) -> list[ExecutionResult]:
        """One independent result per submitted query (duplicates cloned)."""
        used: set[int] = set()
        results: list[ExecutionResult] = []
        for slot in plan.slot_of:
            template = distinct_results[slot]
            if slot not in used:
                used.add(slot)
                results.append(template)
            else:
                results.append(
                    ExecutionResult(
                        query=template.query,
                        records=list(template.records),
                        buckets_per_device=list(template.buckets_per_device),
                        largest_response=template.largest_response,
                        response_time_ms=template.response_time_ms,
                        total_service_ms=template.total_service_ms,
                        strict_optimal=template.strict_optimal,
                        mode="batched",
                    )
                )
        return results


def _per_query(plan: ArrayBatchPlan) -> _Deferred:
    """The span's ``per_query`` attribute: what the optimality checker
    audits for every submitted query, as for a serial span.

    Kept as each distinct query's value tuple, each submitted query's row
    (``slot_of``) and the plan's ``counts`` matrix until the span is read.
    """
    queries = plan.queries
    return _Deferred(
        _render_per_query,
        queries[0].filesystem.field_sizes,
        [queries[index].values for index in plan.distinct],
        plan.slot_of,
        plan.counts,
    )


def _render_per_query(sizes, values, slot_of, counts) -> list[dict]:
    """One ``{query, qualified, buckets_per_device}`` dict per submitted
    query."""
    entries = []
    for slot in slot_of:
        row = values[slot]
        entries.append(
            {
                "query": _describe_values(row),
                "qualified": math.prod(
                    size for size, value in zip(sizes, row) if value is None
                ),
                "buckets_per_device": counts[slot].tolist(),
            }
        )
    return entries
