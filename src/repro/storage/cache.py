"""Subsumption-aware, write-aware query result cache.

Partial match workloads are repetitive, and their queries order naturally
by containment: a cached broad result can answer any narrower query locally
(filter by bucket membership) without touching the devices.  This executor
wraps :class:`~repro.storage.executor.QueryExecutor` with an LRU cache keyed
by query and consulted through :func:`repro.query.algebra.subsumes`.

Cache entries store ``(bucket, records)`` pairs, so answering a subsumed
query looks up the narrower query's qualified buckets ``R(q)`` in the
entry — no rehashing of records required.

Consistency contract
--------------------

The cache is **write-aware**: on construction it subscribes to the file's
:class:`~repro.storage.parallel_file.WriteNotifier`, so every
``PartitionedFile.insert``/``insert_all``/``delete`` automatically drops
exactly the entries whose cached query could match the written record's
bucket (checked through the query algebra:
``subsumes(cached_query, exact-match(bucket))``).  Entries whose cached
query cannot match the bucket are untouched — a write to one region of the
grid does not evict results for disjoint regions.  Entries are keyed by
bucket, not by device, so a :class:`~repro.storage.migration.Migration`
(which moves records between devices without changing any bucket's
contents or the write version) leaves every entry exact.

The cache is also **thread-safe**: every probe, fill, eviction and
invalidation happens under one internal lock (the same discipline as
:class:`repro.perf.memo.LRUCache`).  The device fetch on a miss is the one
step that deliberately runs *outside* that lock: notifications are
delivered while the writer holds the file's mutation lock (see
:meth:`~repro.storage.parallel_file.WriteNotifier._publish`), so a lookup
that held the cache lock while waiting for the mutation lock would deadlock
against a writer holding the mutation lock while waiting for the cache
lock.

Zero stale reads follows from two orderings:

1. *Hits.*  A write's invalidation runs before its version is published,
   so once any reader can observe write version ``v``, every entry ``v``
   could have changed is already gone — an exact or subsumption hit never
   serves data that predates a write the caller has seen.
2. *Fills.*  A write that lands between a miss's device fetch (a
   consistent snapshot under the mutation lock) and its fill cannot drop
   the not-yet-inserted entry, so the fill itself re-checks: notifications
   that arrive while any fetch is in flight are recorded, and a fill is
   skipped (the freshly fetched records are still returned — they are a
   valid snapshot at their own version) when a recorded notification newer
   than the fetched snapshot matches the query.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat
from threading import RLock
from typing import TYPE_CHECKING

from repro.core.inverse import bucket_strides
from repro.engine.signature import pack_queries, pack_query
from repro.errors import ConfigurationError
from repro.hashing.fields import Bucket
from repro.query.algebra import subsumes
from repro.query.partial_match import PartialMatchQuery
from repro.storage.executor import QueryExecutor
from repro.storage.parallel_file import PartitionedFile

if TYPE_CHECKING:  # pragma: no cover - import for type checkers only
    from repro.engine.batch import BatchEngine

__all__ = ["CacheStats", "CachedExecutor", "CachedLookup"]


@dataclass
class CacheStats:
    """Hit/miss accounting for one cached executor."""

    exact_hits: int = 0
    subsumption_hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Entries dropped by write notifications.
    write_invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.exact_hits + self.subsumption_hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return (self.exact_hits + self.subsumption_hits) / self.lookups


@dataclass
class _Entry:
    """One cached result: the qualified buckets with their records.

    Entries are keyed in the cache by the query's packed *signature* (see
    :mod:`repro.engine.signature`) — two cheap machine words instead of a
    tuple hash, computable for a whole batch in one NumPy pass — so the
    query itself lives here for the subsumption scan and write
    invalidation.
    """

    query: PartialMatchQuery | None = None
    buckets: dict[Bucket, tuple[object, ...]] = field(default_factory=dict)
    #: File write version the entry reflects (its linearisation point).
    version: int = 0


@dataclass
class CachedLookup:
    """One resolved lookup: bucket-grouped records plus provenance.

    ``buckets`` holds the *entry*'s buckets (possibly broader than the
    query on a subsumption hit) — :meth:`collect` assembles a query's
    records from them.  ``version`` is the file write version the records
    reflect; ``hit`` is ``"exact"``, ``"subsumption"`` or ``"miss"``.
    """

    query: PartialMatchQuery
    buckets: dict[Bucket, tuple[object, ...]]
    version: int
    hit: str

    def collect(self, query: PartialMatchQuery | None = None) -> list[object]:
        """Records of *query* (default: the looked-up query) from the
        cached buckets.

        When the buckets are exactly *query*'s (an exact hit, a miss, or
        a coalesced follower asking the leader's own query) they concatenate in entry order, the serial oracle's.  When
        a broader entry answers (a subsumption hit, or a narrower
        follower) each qualified bucket of *query* is looked up in it, so
        the records come in ``R(q)``'s row-major order and the read costs
        ``|R(q)|`` probes, not the entry's size.
        """
        query = query or self.query
        if self.hit != "subsumption" and query == self.query:
            groups = self.buckets.values()
        else:
            groups = map(
                self.buckets.get, query.qualified_buckets(), repeat(())
            )
        records: list[object] = []
        for bucket_records in groups:
            records.extend(bucket_records)
        return records


class CachedExecutor:
    """LRU, subsumption-aware, write-aware caching front for partial match
    execution.

    Entries are invalidated automatically when the underlying file mutates
    (see the module docstring for the exact contract); the executor is safe
    to share between threads.

    >>> from repro import FileSystem, FXDistribution
    >>> fs = FileSystem.of(4, 4, m=4)
    >>> pf = PartitionedFile(FXDistribution(fs))
    >>> __ = pf.insert((1, 2))
    >>> cached = CachedExecutor(pf, capacity=8)
    >>> broad = PartialMatchQuery.from_dict(fs, {})
    >>> narrow = pf.query({0: 1})
    >>> __ = cached.execute(broad)       # miss: hits the devices
    >>> __ = cached.execute(narrow)      # answered from the broad entry
    >>> cached.stats.subsumption_hits
    1
    >>> __ = pf.insert((1, 3))           # write notification drops the entry
    >>> __ = cached.execute(broad)
    >>> cached.stats.misses
    2
    """

    def __init__(self, partitioned_file: PartitionedFile, capacity: int = 32):
        if capacity < 1:
            raise ConfigurationError("cache capacity must be at least 1")
        self.file = partitioned_file
        self.capacity = capacity
        self.stats = CacheStats()
        #: Keyed by the query's (mask, packed) signature — see
        #: :mod:`repro.engine.signature`; the entry holds the query.
        self._entries: OrderedDict[tuple[int, int], _Entry] = OrderedDict()
        self._strides = bucket_strides(partitioned_file.filesystem)
        #: Single-query miss fetches; batches go through ``_engine``.
        self._reader = QueryExecutor(partitioned_file)
        self._engine: "BatchEngine | None" = None
        self._lock = RLock()
        #: Misses currently fetching outside the lock; while any are in
        #: flight, write notifications are also recorded in ``_pending_notes``
        #: so the fills can re-check freshness (see module docstring).
        self._fetching = 0
        self._pending_notes: list[tuple[int, Bucket]] = []
        # Write-awareness: drop affected entries on every file mutation.
        self._unsubscribe = partitioned_file.subscribe(self._on_write)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, query: PartialMatchQuery) -> list[object]:
        """Records of *query*'s qualified buckets, cached when possible."""
        return self.lookup(query).collect(query)

    def lookup(self, query: PartialMatchQuery) -> CachedLookup:
        """Resolve *query* to bucket-grouped records with provenance.

        Hit probing and the fill run under the cache lock; the device fetch
        on a miss runs outside it (it takes the file's mutation lock, which
        write notifications are delivered under — holding both here would
        deadlock).  A fill is skipped when a write notification newer than
        the fetched snapshot arrived mid-fetch and matches the query; the
        fetched records are still returned, stamped with their own version.
        """
        signature = pack_query(query, self._strides)
        with self._lock:
            hit = self._probe(query, signature)
            if hit is not None:
                return hit
            self._fetching += 1
        try:
            buckets, version = self._reader.fetch_buckets(query)
        except BaseException:
            with self._lock:
                self._retire_fetch()
            raise
        with self._lock:
            self._fill(signature, query, buckets, version)
            self._retire_fetch()
        return CachedLookup(query, buckets, version, "miss")

    def lookup_batch(
        self, queries: "Sequence[PartialMatchQuery]"
    ) -> list[CachedLookup]:
        """Resolve a whole batch with one lock pass and one device pass.

        Signatures for the batch are computed vectorised
        (:func:`repro.engine.signature.pack_queries`); hits resolve under a
        single acquisition of the cache lock, and every distinct miss is
        fetched together through the batch engine's
        :meth:`~repro.engine.batch.BatchEngine.fetch_buckets` — one
        consistent snapshot, each (device, bucket) pair read once for the
        whole batch.  Per-query results (provenance, stats, freshness
        re-check against mid-fetch writes) match what ``len(queries)``
        serial :meth:`lookup` calls would produce; miss entries group only
        the *non-empty* qualified buckets, which collects identically.
        """
        if not queries:
            return []
        signatures = pack_queries(queries, self._strides)
        results: list[CachedLookup | None] = [None] * len(queries)
        miss_slots: dict[tuple[int, int], list[int]] = {}
        miss_queries: list[PartialMatchQuery] = []
        with self._lock:
            for index, (query, signature) in enumerate(
                zip(queries, signatures)
            ):
                if signature in miss_slots:
                    # Duplicate of an in-batch miss: one fetch serves both.
                    self.stats.misses += 1
                    miss_slots[signature].append(index)
                    continue
                results[index] = self._probe(query, signature)
                if results[index] is None:
                    miss_slots[signature] = [index]
                    miss_queries.append(query)
            if miss_queries:
                self._fetching += 1
        if not miss_queries:
            return results
        try:
            bucket_maps, version = self._batch_engine().fetch_buckets(
                miss_queries
            )
        except BaseException:
            with self._lock:
                self._retire_fetch()
            raise
        with self._lock:
            for query, signature, buckets in zip(
                miss_queries, miss_slots, bucket_maps
            ):
                self._fill(signature, query, buckets, version)
                for slot in miss_slots[signature]:
                    results[slot] = CachedLookup(
                        query, buckets, version, "miss"
                    )
            self._retire_fetch()
        return results

    def _probe(
        self, query: PartialMatchQuery, signature: tuple[int, int]
    ) -> CachedLookup | None:
        """An exact or subsumption hit for *query*, or None after counting
        the miss (call under the cache lock)."""
        entry = self._entries.get(signature)
        if entry is not None:
            self._entries.move_to_end(signature)
            self.stats.exact_hits += 1
            return CachedLookup(query, entry.buckets, entry.version, "exact")
        for cached_key in reversed(self._entries):
            cached = self._entries[cached_key]
            if subsumes(cached.query, query):
                self._entries.move_to_end(cached_key)
                self.stats.subsumption_hits += 1
                return CachedLookup(
                    query, cached.buckets, cached.version, "subsumption"
                )
        self.stats.misses += 1
        return None

    def _fill(
        self,
        signature: tuple[int, int],
        query: PartialMatchQuery,
        buckets: dict[Bucket, tuple[object, ...]],
        version: int,
    ) -> None:
        """Cache a fetched result (call under the cache lock, before the
        fetch retires).  Skipped when a write newer than *version* that
        matches *query* arrived mid-fetch."""
        if any(
            note_version > version
            and subsumes(
                query, PartialMatchQuery.exact(self.file.filesystem, bucket)
            )
            for note_version, bucket in self._pending_notes
        ):
            return
        self._entries[signature] = _Entry(
            query=query, buckets=buckets, version=version
        )
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def _batch_engine(self) -> "BatchEngine":
        """The lazily created batch engine behind :meth:`lookup_batch`."""
        if self._engine is None:
            from repro.engine.batch import BatchEngine

            self._engine = BatchEngine(self.file)
        return self._engine

    def _retire_fetch(self) -> None:
        """One in-flight fetch finished (call under the cache lock); once
        none remain, the recorded notification window is drained."""
        self._fetching -= 1
        if self._fetching == 0:
            self._pending_notes.clear()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _on_write(self, bucket: Bucket, version: int) -> None:
        """Write notification: drop entries whose query could match
        *bucket* (exactly the entries the write may have changed).

        Runs under the file's mutation lock, before *version* is published.
        While misses are fetching outside the cache lock, the notification
        is also recorded so their fills can re-check freshness.
        """
        exact = PartialMatchQuery.exact(self.file.filesystem, bucket)
        with self._lock:
            affected = [
                cached_key
                for cached_key, cached in self._entries.items()
                if subsumes(cached.query, exact)
            ]
            for cached_key in affected:
                del self._entries[cached_key]
            self.stats.write_invalidations += len(affected)
            if self._fetching:
                self._pending_notes.append((version, bucket))

    def close(self) -> None:
        """Detach from the file's write notifications (long-lived files
        outliving short-lived caches should not accumulate listeners)."""
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
