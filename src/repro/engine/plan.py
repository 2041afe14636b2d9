"""Array-native batch planning: many queries to one read schedule.

The planner turns a batch of partial match queries into flat int64 bucket
addresses (see :func:`repro.core.inverse.bucket_strides`) organised two
ways at once:

* **per (query, device) slices**, in the serial executor's exact
  enumeration order — what result assembly replays to stay byte-identical
  with :class:`~repro.storage.executor.QueryExecutor`, and
* **per-device unique read sets** (``np.unique`` over every slice that
  targets the device) — what the engine actually fetches, touching each
  bucket once per batch no matter how many queries share it.

Duplicate queries are collapsed by signature before any inverse mapping
runs (:func:`repro.engine.signature.dedupe_queries`), and the remaining
distinct queries are grouped by pattern so each group is solved by one call
to the batched kernel :func:`~repro.core.inverse.separable_qualified_flat_batch`.
Non-separable methods fall back to the tuple-at-a-time iterator with
identical plan contents.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.inverse import bucket_strides, separable_qualified_flat_batch
from repro.distribution.base import SeparableMethod
from repro.errors import QueryError
from repro.obs.clock import now as _now
from repro.obs.metrics import default_registry
from repro.query.partial_match import PartialMatchQuery

__all__ = ["ArrayBatchPlan", "ArrayBatchPlanner"]


@dataclass
class ArrayBatchPlan:
    """The read schedule of one batch, in flat-array form.

    ``slices[(slot, device)]`` holds the flat addresses of the buckets
    distinct query *slot* needs from *device*, in serial enumeration order
    (present or not — absent buckets cost a probe in the serial model too);
    ``unique_per_device[device]`` is the sorted deduplicated union the
    engine will actually read.
    """

    queries: Sequence[PartialMatchQuery]
    #: Indices (into ``queries``) of the distinct queries, first-occurrence
    #: order; ``slot_of[i]`` maps original query *i* to its distinct slot.
    distinct: list[int]
    slot_of: list[int]
    #: ``counts[slot, device]``: planned bucket probes, aligned with
    #: ``distinct`` — exactly serial execution's ``len(assigned)``.
    counts: np.ndarray
    #: Flat bucket addresses per (slot, device), serial enumeration order.
    slices: dict[tuple[int, int], np.ndarray]
    #: Per device: every slot's slice concatenated in slot order, plus the
    #: cumulative slot boundaries (length ``len(distinct)``) — the
    #: assembled view result assembly matches against fetched data in one
    #: pass instead of per (slot, device).
    requests: dict[int, tuple[np.ndarray, np.ndarray]]
    #: Sorted unique flat addresses each device must serve for the batch.
    #: Empty when the bitmap path is active (see ``masks``).
    unique_per_device: dict[int, np.ndarray]
    #: When the flat bucket domain is small enough, a boolean membership
    #: mask per device replaces the sorted unique array: an O(reads)
    #: scatter instead of an O(reads log reads) sort, and the fetch flips
    #: to gathering ``present[mask[present]]`` — the present set is tiny
    #: next to the request stream.
    masks: dict[int, np.ndarray]
    #: Distinct planned (device, bucket) pairs per device, filled by both
    #: the sort and the bitmap paths.
    unique_counts: dict[int, int]
    #: Row-major strides the flat encoding uses.
    strides: np.ndarray
    #: Bucket probes query-at-a-time execution of the *submitted* batch
    #: would make (duplicates included).
    naive_bucket_reads: int = 0
    #: How many submitted queries were dropped as exact duplicates.
    duplicates_removed: int = 0

    @property
    def planned_reads(self) -> int:
        """Bucket probes after deduplication of identical queries."""
        return int(self.counts.sum())

    @property
    def unique_reads(self) -> int:
        """Distinct (device, bucket) pairs the engine will touch."""
        return sum(self.unique_counts.values())


class ArrayBatchPlanner:
    """Plans batches for one distribution method (stateless, shareable)."""

    #: Largest flat bucket domain for which per-device boolean membership
    #: masks are used instead of sort-based dedupe (1 MiB of bool per
    #: device at the limit).
    BITMAP_DOMAIN_LIMIT = 1 << 20

    def __init__(self, method):
        self.method = method
        self.strides = bucket_strides(method.filesystem)
        total_buckets = 1
        for size in method.filesystem.field_sizes:
            total_buckets *= size
        self._domain = (
            total_buckets
            if total_buckets <= self.BITMAP_DOMAIN_LIMIT
            else None
        )
        #: Recycled all-False mask buffers (see :meth:`recycle`) — fresh
        #: ``np.zeros`` per device per batch showed up in small-batch
        #: profiles.
        self._mask_pool: list[np.ndarray] = []

    def recycle(self, plan: ArrayBatchPlan) -> None:
        """Return *plan*'s mask buffers to the pool once the engine is done.

        Each mask is reset by clearing exactly the positions its device's
        request stream set — O(planned reads), not O(domain).  Safe to
        skip (buffers are then simply reallocated next batch) but never
        call while the plan is still in use.
        """
        for device, mask in plan.masks.items():
            requested, __ = plan.requests[device]
            if requested.size:
                mask[requested] = False
            self._mask_pool.append(mask)
        plan.masks = {}

    def plan(self, queries: Sequence[PartialMatchQuery]) -> ArrayBatchPlan:
        started = _now()
        fs = self.method.filesystem
        for query in queries:
            if query.filesystem != fs:
                raise QueryError(
                    "batch contains a query for a different file system"
                )
        from repro.engine.signature import dedupe_queries

        distinct, slot_of = dedupe_queries(queries, self.strides)
        plan = ArrayBatchPlan(
            queries=queries,
            distinct=distinct,
            slot_of=slot_of,
            counts=np.zeros((len(distinct), fs.m), dtype=np.int64),
            slices={},
            requests={},
            unique_per_device={},
            masks={},
            unique_counts={},
            strides=self.strides,
            naive_bucket_reads=sum(q.qualified_count for q in queries),
            duplicates_removed=len(queries) - len(distinct),
        )
        if isinstance(self.method, SeparableMethod):
            self._plan_separable(plan)
        else:
            self._plan_generic(plan)
        for device in range(fs.m):
            parts = [
                plan.slices[(slot, device)] for slot in range(len(distinct))
            ]
            requested = (
                np.concatenate(parts)
                if parts
                else np.empty(0, dtype=np.int64)
            )
            boundaries = np.cumsum(
                np.asarray([part.size for part in parts], dtype=np.int64)
            )
            plan.requests[device] = (requested, boundaries)
            if self._domain is not None:
                mask = (
                    self._mask_pool.pop()
                    if self._mask_pool
                    else np.zeros(self._domain, dtype=bool)
                )
                if requested.size:
                    mask[requested] = True
                    # Distinct count: popcount the mask when the stream is
                    # dense, sort the (small) stream when scanning the
                    # whole domain would cost more.
                    if requested.size * 16 < self._domain:
                        merged = np.sort(requested)
                        distinct_count = 1 + int(
                            np.count_nonzero(merged[1:] != merged[:-1])
                        )
                    else:
                        distinct_count = int(np.count_nonzero(mask))
                else:
                    distinct_count = 0
                plan.masks[device] = mask
                plan.unique_counts[device] = distinct_count
            elif requested.size:
                merged = np.sort(requested, kind="stable")
                # sort + adjacent-difference dedupe: same result as
                # ``np.unique`` but without its hashing pass, which
                # dominated planning time on large batches.
                keep = np.empty(merged.size, dtype=bool)
                keep[0] = True
                np.not_equal(merged[1:], merged[:-1], out=keep[1:])
                unique = merged[keep]
                plan.unique_per_device[device] = unique
                plan.unique_counts[device] = int(unique.size)
            else:
                plan.unique_per_device[device] = np.empty(0, dtype=np.int64)
                plan.unique_counts[device] = 0
        default_registry().record_perf_work(
            "engine_plan", plan.planned_reads, _now() - started
        )
        return plan

    def _plan_separable(self, plan: ArrayBatchPlan) -> None:
        """One batched-kernel call per pattern group of distinct queries."""
        m = self.method.filesystem.m
        groups: dict[frozenset[int], list[int]] = {}
        for slot, query_index in enumerate(plan.distinct):
            pattern = plan.queries[query_index].pattern
            groups.setdefault(pattern, []).append(slot)
        for slots in groups.values():
            group_queries = [
                plan.queries[plan.distinct[slot]] for slot in slots
            ]
            flat, counts = separable_qualified_flat_batch(
                self.method, group_queries, self.strides
            )
            # ``flat`` is (query, device, ...)-major: plain slicing at the
            # count boundaries recovers each (slot, device) view (cheaper
            # than ``np.split`` for thousands of pieces).
            offsets = np.concatenate(
                (np.zeros(1, dtype=np.int64), np.cumsum(counts.ravel()))
            ).tolist()
            for g, slot in enumerate(slots):
                plan.counts[slot] = counts[g]
                base = g * m
                for device in range(m):
                    plan.slices[(slot, device)] = flat[
                        offsets[base + device]:offsets[base + device + 1]
                    ]

    def _plan_generic(self, plan: ArrayBatchPlan) -> None:
        """Iterator fallback for non-separable methods (same plan shape)."""
        m = self.method.filesystem.m
        strides = self.strides
        for slot, query_index in enumerate(plan.distinct):
            query = plan.queries[query_index]
            for device in range(m):
                flats = [
                    int(np.dot(np.asarray(bucket, dtype=np.int64), strides))
                    for bucket in self.method.qualified_on_device(
                        device, query
                    )
                ]
                plan.slices[(slot, device)] = np.asarray(
                    flats, dtype=np.int64
                )
                plan.counts[slot, device] = len(flats)
