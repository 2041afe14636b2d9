"""Array-native batch planning: many queries to one request stream.

The planner turns a batch of partial match queries into one stream of
flat int64 bucket addresses (see :func:`repro.core.inverse.bucket_strides`)
in serial order: each distinct query's buckets on device 0, then device 1,
and so on, each device's in the serial executor's enumeration order —
what result assembly replays to stay byte-identical with
:class:`~repro.storage.executor.QueryExecutor`.  A ``counts`` matrix says
how many of them each (query, device) cell holds.

Duplicate queries are collapsed by signature before any inverse mapping
runs (:func:`repro.engine.signature.dedupe_queries`).  For separable
methods one call to
:func:`~repro.core.inverse.separable_qualified_flat_batch` builds the
whole stream: each pattern is solved once per method, and each query's
slices are its pattern's plan with devices relabelled by the query's
fold and addresses shifted by its specified prefix.  Non-separable
methods fall back to the tuple-at-a-time iterator with the same stream.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.inverse import bucket_strides, separable_qualified_flat_batch
from repro.distribution.base import SeparableMethod
from repro.engine.signature import dedupe_queries
from repro.errors import QueryError
from repro.obs.clock import now as _now
from repro.obs.metrics import default_registry
from repro.query.partial_match import PartialMatchQuery

__all__ = ["ArrayBatchPlan", "ArrayBatchPlanner"]


@dataclass
class ArrayBatchPlan:
    """The read schedule of one batch, as one flat request stream.

    ``stream`` holds the flat addresses of every bucket each distinct
    query needs (present or not — absent buckets cost a probe in the
    serial model too), ordered by (slot, device, serial enumeration);
    ``counts[slot, device]`` is how many of them each cell holds.
    """

    queries: Sequence[PartialMatchQuery]
    #: Indices (into ``queries``) of the distinct queries, first-occurrence
    #: order; ``slot_of[i]`` maps original query *i* to its distinct slot.
    distinct: list[int]
    slot_of: list[int]
    #: ``counts[slot, device]``: planned bucket probes, aligned with
    #: ``distinct`` — exactly serial execution's ``len(assigned)``.
    counts: np.ndarray
    #: Flat bucket addresses, in (slot, device, enumeration) order.
    stream: np.ndarray
    #: Distinct (device, bucket) pairs in ``stream``: what the engine
    #: probes once for the whole batch.
    unique_reads: int
    #: Bucket probes query-at-a-time execution of the *submitted* batch
    #: would make (duplicates included).
    naive_bucket_reads: int = 0
    #: How many submitted queries were dropped as exact duplicates.
    duplicates_removed: int = 0

    @property
    def planned_reads(self) -> int:
        """Bucket probes after deduplication of identical queries."""
        return int(self.stream.size)


class ArrayBatchPlanner:
    """Plans batches for one distribution method (stateless, shareable)."""

    #: Largest flat bucket domain for which the engine keeps one
    #: domain-sized lookup array of stored buckets, and the planner counts
    #: distinct reads of a dense stream on a transient bitmap (1 byte per
    #: bucket); above it both sort.
    BITMAP_DOMAIN_LIMIT = 1 << 20

    def __init__(self, method):
        self.method = method
        self.strides = bucket_strides(method.filesystem)
        self.domain = method.filesystem.bucket_count

    def plan(self, queries: Sequence[PartialMatchQuery]) -> ArrayBatchPlan:
        started = _now()
        fs = self.method.filesystem
        for query in queries:
            if query.filesystem != fs:
                raise QueryError(
                    "batch contains a query for a different file system"
                )
        distinct, slot_of = dedupe_queries(queries, self.strides)
        chosen = [queries[index] for index in distinct]
        if isinstance(self.method, SeparableMethod):
            stream, counts = separable_qualified_flat_batch(
                self.method, chosen, self.strides
            )
        else:
            stream, counts = self._plan_generic(chosen)
        plan = ArrayBatchPlan(
            queries=queries,
            distinct=distinct,
            slot_of=slot_of,
            counts=counts,
            stream=stream,
            unique_reads=self._distinct_count(stream),
            naive_bucket_reads=sum(q.qualified_count for q in queries),
            duplicates_removed=len(queries) - len(distinct),
        )
        default_registry().record_perf_work(
            "engine_plan", plan.planned_reads, _now() - started
        )
        return plan

    def _distinct_count(self, stream: np.ndarray) -> int:
        """Distinct addresses in *stream*: a bitmap popcount when the
        stream is dense in a small domain, a sort otherwise (each bucket
        lives on one device, so addresses alone name the pairs)."""
        if (
            self.domain <= self.BITMAP_DOMAIN_LIMIT
            and stream.size * 16 >= self.domain
        ):
            seen = np.zeros(self.domain, dtype=bool)
            seen[stream] = True
            return int(np.count_nonzero(seen))
        if not stream.size:
            return 0
        merged = np.sort(stream)
        return 1 + int(np.count_nonzero(merged[1:] != merged[:-1]))

    def _plan_generic(
        self, queries: Sequence[PartialMatchQuery]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Iterator fallback for non-separable methods (same stream)."""
        m = self.method.filesystem.m
        counts = np.zeros((len(queries), m), dtype=np.int64)
        parts = [np.empty(0, dtype=np.int64)]
        for slot, query in enumerate(queries):
            for device in range(m):
                buckets = list(self.method.qualified_on_device(device, query))
                counts[slot, device] = len(buckets)
                if buckets:
                    parts.append(
                        np.asarray(buckets, dtype=np.int64) @ self.strides
                    )
        return np.concatenate(parts), counts
