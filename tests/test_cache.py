"""Tests for the subsumption-aware query result cache."""

import random
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fx import FXDistribution
from repro.engine.batch import BatchEngine
from repro.errors import ConfigurationError
from repro.hashing.fields import FileSystem
from repro.query.partial_match import PartialMatchQuery
from repro.storage.cache import CachedExecutor, CachedLookup
from repro.storage.executor import QueryExecutor
from repro.storage.parallel_file import PartitionedFile

FS = FileSystem.of(4, 4, m=4)


def _loaded():
    pf = PartitionedFile(FXDistribution(FS))
    pf.insert_all([(i, f"t{i % 7}") for i in range(60)])
    return pf


def _ground_truth(pf, query):
    records = []
    for device in pf.devices:
        for bucket in device.store.buckets():
            if query.matches(bucket):
                records.extend(device.store.records_in(bucket))
    return sorted(map(str, records))


class TestCorrectness:
    def test_miss_returns_correct_records(self):
        pf = _loaded()
        cached = CachedExecutor(pf)
        query = pf.query({0: 5})
        assert sorted(map(str, cached.execute(query))) == _ground_truth(
            pf, query
        )

    def test_exact_hit_returns_same_records(self):
        pf = _loaded()
        cached = CachedExecutor(pf)
        query = pf.query({0: 5})
        first = cached.execute(query)
        second = cached.execute(query)
        assert sorted(map(str, first)) == sorted(map(str, second))
        assert cached.stats.exact_hits == 1

    def test_subsumption_hit_correct(self):
        pf = _loaded()
        cached = CachedExecutor(pf)
        cached.execute(PartialMatchQuery.full_scan(FS))
        narrow = pf.query({0: 5, 1: "t3"})
        got = cached.execute(narrow)
        assert cached.stats.subsumption_hits == 1
        assert sorted(map(str, got)) == _ground_truth(pf, narrow)

    def test_subsumption_hit_avoids_device_reads(self):
        pf = _loaded()
        cached = CachedExecutor(pf)
        cached.execute(PartialMatchQuery.full_scan(FS))
        reads_before = sum(d.stats.bucket_reads for d in pf.devices)
        cached.execute(pf.query({0: 2}))
        reads_after = sum(d.stats.bucket_reads for d in pf.devices)
        assert reads_after == reads_before

    def test_narrow_entry_does_not_answer_broad_query(self):
        pf = _loaded()
        cached = CachedExecutor(pf)
        cached.execute(pf.query({0: 1}))
        broad = PartialMatchQuery.full_scan(FS)
        got = cached.execute(broad)
        assert cached.stats.misses == 2  # both executions hit the devices
        assert sorted(map(str, got)) == _ground_truth(pf, broad)


@st.composite
def _collect_cases(draw):
    """A loaded file on a small power-of-two grid, a broad query and a
    narrower one it subsumes (the broad one with more fields pinned)."""
    sizes = draw(
        st.lists(st.sampled_from([1, 2, 4, 8]), min_size=1, max_size=3)
    )
    fs = FileSystem.of(*sizes, m=draw(st.sampled_from([1, 2, 4, 8])))
    pf = PartitionedFile(FXDistribution(fs))
    pf.insert_all(
        draw(
            st.lists(
                st.tuples(*(st.integers(0, 15) for __ in sizes)), max_size=40
            )
        )
    )
    broad = [
        draw(st.one_of(st.none(), st.integers(0, size - 1))) for size in sizes
    ]
    narrow = [
        value
        if value is not None
        else draw(st.one_of(st.none(), st.integers(0, size - 1)))
        for value, size in zip(broad, sizes)
    ]
    return (
        pf,
        PartialMatchQuery(fs, tuple(broad)),
        PartialMatchQuery(fs, tuple(narrow)),
    )


class _CountingBuckets(dict):
    """An entry's bucket map that counts every bucket it is asked for or
    hands out."""

    touched = 0

    def get(self, bucket, default=None):
        self.touched += 1
        return super().get(bucket, default)

    def __getitem__(self, bucket):
        self.touched += 1
        return super().__getitem__(bucket)

    def __contains__(self, bucket):
        self.touched += 1
        return super().__contains__(bucket)

    def __iter__(self):
        for bucket in super().__iter__():
            self.touched += 1
            yield bucket

    def values(self):
        for bucket_records in super().values():
            self.touched += 1
            yield bucket_records

    def items(self):
        for item in super().items():
            self.touched += 1
            yield item


class TestCollect:
    """``CachedLookup.collect`` against the serial oracle, for every way a
    lookup can come about."""

    @settings(max_examples=60, deadline=None)
    @given(_collect_cases())
    def test_every_provenance_matches_serial_oracle(self, case):
        pf, broad, narrow = case
        oracle = {
            query: QueryExecutor(pf).execute(query).records
            for query in (broad, narrow)
        }

        def lookups(query):
            """(lookup, provenance) for every way *query* can resolve,
            where the entry's buckets are exactly the query's."""
            cached = CachedExecutor(pf)
            miss = cached.lookup(query)
            exact = cached.lookup(query)
            batch_miss = CachedExecutor(pf).lookup_batch([query])[0]
            buckets, version = QueryExecutor(pf).fetch_buckets(query)
            engine_buckets, engine_version = BatchEngine(pf).fetch_buckets(
                [query]
            )
            return [
                (miss, "miss"),
                (exact, "exact"),
                (batch_miss, "miss"),
                (CachedLookup(query, buckets, version, ""), ""),
                (
                    CachedLookup(
                        query, engine_buckets[0], engine_version, ""
                    ),
                    "",
                ),
            ]

        for query in (broad, narrow):
            for lookup, hit in lookups(query):
                assert lookup.hit == hit
                assert lookup.collect() == oracle[query]
                # A follower asking the leader's own query.
                assert lookup.collect(query) == oracle[query]
        for lookup, __ in lookups(broad):
            # A narrower coalesced follower on a broad leader's lookup.
            assert Counter(lookup.collect(narrow)) == Counter(oracle[narrow])
        for batched in (False, True):
            cached = CachedExecutor(pf)
            if batched:
                cached.lookup_batch([broad])
            else:
                cached.lookup(broad)
            hit = cached.lookup(narrow)
            assert hit.hit == ("exact" if narrow == broad else "subsumption")
            assert Counter(hit.collect()) == Counter(oracle[narrow])
            assert Counter(hit.collect(narrow)) == Counter(oracle[narrow])

    @pytest.mark.parametrize("follower", [False, True])
    def test_broad_entry_read_touches_only_qualified_buckets(self, follower):
        pf = _loaded()
        cached = CachedExecutor(pf)
        broad = PartialMatchQuery.full_scan(FS)
        narrow = pf.query({0: 5})
        leader = cached.lookup(broad)
        lookup = leader if follower else cached.lookup(narrow)
        assert lookup.hit == ("miss" if follower else "subsumption")
        counted = CachedLookup(
            lookup.query,
            _CountingBuckets(lookup.buckets),
            lookup.version,
            lookup.hit,
        )
        records = counted.collect(narrow)
        assert counted.buckets.touched <= narrow.qualified_count
        assert Counter(records) == Counter(
            QueryExecutor(pf).execute(narrow).records
        )


class TestLifecycle:
    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            CachedExecutor(_loaded(), capacity=0)

    def test_lru_eviction(self):
        pf = _loaded()
        cached = CachedExecutor(pf, capacity=2)
        q1, q2, q3 = (
            PartialMatchQuery.from_dict(FS, {0: v}) for v in (0, 1, 2)
        )
        cached.execute(q1)
        cached.execute(q2)
        cached.execute(q3)  # evicts q1
        assert cached.stats.evictions == 1
        assert len(cached) == 2
        cached.execute(q1)
        assert cached.stats.misses == 4

    def test_hit_rate(self):
        pf = _loaded()
        cached = CachedExecutor(pf)
        query = pf.query({0: 3})
        assert cached.stats.hit_rate == 0.0
        cached.execute(query)
        cached.execute(query)
        assert cached.stats.hit_rate == pytest.approx(0.5)


class TestWriteAwareness:
    """The stale-read bugfix: writes invalidate affected entries on their
    own — no manual ``invalidate()`` between executions required."""

    def test_insert_between_two_executions_is_visible(self):
        # Regression: this exact sequence used to serve the pre-insert
        # result from cache — a stale read.
        pf = _loaded()
        cached = CachedExecutor(pf)
        query = pf.query({0: 3})
        first = cached.execute(query)
        pf.insert((3, "fresh"))  # same raw value 3: lands in a cached bucket
        second = cached.execute(query)
        assert sorted(map(str, second)) == _ground_truth(pf, query)
        assert len(second) == len(first) + 1
        assert cached.stats.write_invalidations >= 1

    def test_delete_between_two_executions_is_visible(self):
        pf = _loaded()
        cached = CachedExecutor(pf)
        query = pf.query({0: 3})
        first = cached.execute(query)
        assert pf.delete((3, "t3"))
        second = cached.execute(query)
        assert sorted(map(str, second)) == _ground_truth(pf, query)
        assert len(second) == len(first) - 1

    def test_unrelated_write_leaves_entry_intact(self):
        pf = _loaded()
        cached = CachedExecutor(pf)
        query = pf.query({0: 3})
        cached.execute(query)
        # find a raw value whose hashed field-0 address differs from 3's
        target = pf.query({0: 3}).values[0]
        other = next(
            v for v in range(32) if pf.query({0: v}).values[0] != target
        )
        pf.insert((other, "elsewhere"))
        cached.execute(query)
        assert cached.stats.exact_hits == 1
        assert cached.stats.write_invalidations == 0

    def test_write_drops_subsuming_broad_entry_too(self):
        pf = _loaded()
        cached = CachedExecutor(pf)
        from repro.query.partial_match import PartialMatchQuery

        broad = PartialMatchQuery.full_scan(FS)
        cached.execute(broad)  # a full scan matches every bucket
        pf.insert((1, "anywhere"))
        assert cached.stats.write_invalidations == 1
        got = cached.execute(broad)
        assert cached.stats.misses == 2
        assert sorted(map(str, got)) == _ground_truth(pf, broad)

    def test_notification_precedes_version_publish(self):
        # The freshness proof hangs on this ordering: listeners run before
        # the new write version becomes observable, so a reader that has
        # seen version v can never hit an entry v invalidated.
        pf = _loaded()
        observed = []
        pf.subscribe(
            lambda bucket, version: observed.append((version, pf.write_version))
        )
        before = pf.write_version
        pf.insert((3, "ordered"))
        assert observed == [(before + 1, before)]
        assert pf.write_version == before + 1

    def test_fill_skipped_when_matching_write_lands_mid_fetch(self):
        # A write landing between a miss's device fetch and its fill cannot
        # drop the not-yet-inserted entry; the fill must notice and skip
        # caching the now-stale snapshot (while still returning it).
        pf = _loaded()
        cached = CachedExecutor(pf)
        query = pf.query({0: 3})
        original_fetch = cached._reader.fetch_buckets

        def racing_fetch(q):
            fetched = original_fetch(q)
            pf.insert((3, "mid-fetch"))  # lands in a bucket the query matches
            return fetched

        cached._reader.fetch_buckets = racing_fetch
        cached.execute(query)
        cached._reader.fetch_buckets = original_fetch
        assert len(cached) == 0  # stale fill was skipped
        got = cached.execute(query)  # a miss again, now cacheable
        assert cached.stats.misses == 2
        assert sorted(map(str, got)) == _ground_truth(pf, query)

    def test_fill_kept_when_unrelated_write_lands_mid_fetch(self):
        pf = _loaded()
        cached = CachedExecutor(pf)
        query = pf.query({0: 3})
        target = query.values[0]
        other = next(
            v for v in range(32) if pf.query({0: v}).values[0] != target
        )
        original_fetch = cached._reader.fetch_buckets

        def racing_fetch(q):
            fetched = original_fetch(q)
            pf.insert((other, "elsewhere"))  # disjoint bucket: entry stays
            return fetched

        cached._reader.fetch_buckets = racing_fetch
        cached.execute(query)
        cached._reader.fetch_buckets = original_fetch
        assert len(cached) == 1
        cached.execute(query)
        assert cached.stats.exact_hits == 1

    def test_close_detaches_from_notifications(self):
        pf = _loaded()
        cached = CachedExecutor(pf)
        query = pf.query({0: 3})
        cached.execute(query)
        cached.close()
        pf.insert((3, "after-close"))
        assert cached.stats.write_invalidations == 0
        assert len(cached) == 1  # entry survives; manual contract applies
        cached.close()  # idempotent


class TestThreadSafety:
    """The thread-unsafety bugfix: concurrent lookups, fills, evictions
    and write notifications share one lock (mirroring
    :class:`repro.perf.memo.LRUCache`)."""

    def test_concurrent_execute_and_write_stress(self):
        pf = _loaded()
        cached = CachedExecutor(pf, capacity=4)  # small: constant eviction
        n_threads, n_ops = 8, 60
        errors = []
        barrier = threading.Barrier(n_threads)

        def worker(thread_id):
            rng = random.Random(thread_id)
            try:
                barrier.wait()
                for op in range(n_ops):
                    if thread_id % 2 == 0 and op % 10 == 9:
                        pf.insert((rng.randrange(32), f"w{thread_id}-{op}"))
                    else:
                        query = pf.query({0: rng.randrange(8)})
                        for record in cached.execute(query):
                            assert query.matches(
                                pf.multikey_hash.bucket_of(record)
                            )
            except BaseException as error:
                errors.append(f"thread {thread_id}: {error!r}")

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        # after the dust settles every query must be served fresh-correct
        for value in range(8):
            query = pf.query({0: value})
            assert sorted(map(str, cached.execute(query))) == _ground_truth(
                pf, query
            )

    def test_stats_consistent_after_stress(self):
        pf = _loaded()
        cached = CachedExecutor(pf, capacity=8)
        barrier = threading.Barrier(4)

        def worker(thread_id):
            barrier.wait()
            for op in range(50):
                cached.execute(pf.query({0: (thread_id + op) % 6}))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert cached.stats.lookups == 200
        assert 0.0 <= cached.stats.hit_rate <= 1.0
