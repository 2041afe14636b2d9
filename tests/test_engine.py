"""The array-native batch engine: byte-identity with the serial path.

The engine's contract is absolute: for every query in a batch, the
assembled :class:`~repro.storage.executor.ExecutionResult` must match what
the serial :class:`~repro.storage.executor.QueryExecutor` produces — same
records in the same order, same per-device counts, same modelled times —
with only the ``mode`` provenance marker differing.  These tests pin that
contract with randomized property tests over filesystems, methods, query
mixes and interleaved writes, then cover the satellite surfaces: packed
signatures, damaged checksummed pages, the batched cache path, explicit
service batches and the batched optimality checker.
"""

import itertools
import random
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BatchEngine, make_method
from repro.api import make_durable_file
from repro.core.fx import FXDistribution
from repro.core import inverse
from repro.core.inverse import (
    bucket_strides,
    pattern_plan,
    separable_qualified_flat_batch,
    separable_qualified_on_device,
)
from repro.distribution.modulo import ModuloDistribution
from repro.durability import DeviceRebuilder, Scrubber
from repro.durability.checksummed_store import ChecksummedBucketStore
from repro.engine.plan import ArrayBatchPlanner
from repro.engine.signature import dedupe_queries, pack_queries, pack_query
from repro.errors import CorruptPageError
from repro.hashing.fields import FileSystem
from repro.obs import reset_telemetry
from repro.obs.checker import ObservedOptimalityChecker
from repro.query.partial_match import PartialMatchQuery
from repro.service.frontend import QueryService
from repro.storage.bucket_store import BucketStore
from repro.storage.cache import CachedExecutor
from repro.storage.executor import QueryExecutor
from repro.storage.migration import Migration
from repro.storage.parallel_file import PartitionedFile

_METHODS = ["fx", "gdm", "modulo", "random"]
_SIZES = st.sampled_from([2, 4, 8])
#: Every store type the engine reads through the device (None = plain).
_STORES = [None, ChecksummedBucketStore]


@st.composite
def engine_cases(draw):
    """A loaded partitioned file plus a mixed query batch against it."""
    n = draw(st.integers(2, 4))
    sizes = tuple(draw(_SIZES) for __ in range(n))
    m = draw(st.sampled_from([2, 4, 8]))
    name = draw(st.sampled_from(_METHODS))
    method = make_method(name, fields=sizes, devices=m)
    pf = PartitionedFile(method)
    rng = random.Random(draw(st.integers(0, 2**20)))
    for __ in range(draw(st.integers(0, 120))):
        pf.insert(tuple(rng.randrange(s) for s in sizes))

    queries = []
    for __ in range(draw(st.integers(1, 12))):
        spec = {
            i: rng.randrange(sizes[i])
            for i in range(n)
            if rng.random() < 0.5
        }
        queries.append(pf.query(spec))
    # Force duplicates and a full scan into some batches.
    if draw(st.booleans()):
        queries.append(queries[0])
    if draw(st.booleans()):
        queries.append(pf.query({}))
    return pf, queries


def stored_records(pf):
    return [
        record
        for device in pf.devices
        for bucket in device.store.buckets()
        for record in device.store.records_in(bucket)
    ]


def refile(pf, store_factory):
    """A copy of *pf* under the same method on *store_factory* stores."""
    copy = PartitionedFile(pf.method, store_factory=store_factory)
    for record in stored_records(pf):
        copy.insert(record)
    return copy


def assert_results_identical(batched, serial):
    """Byte-identity modulo the ``mode`` provenance marker."""
    assert batched.records == serial.records
    assert batched.buckets_per_device == serial.buckets_per_device
    assert batched.largest_response == serial.largest_response
    assert batched.response_time_ms == serial.response_time_ms
    assert batched.total_service_ms == serial.total_service_ms
    assert batched.strict_optimal == serial.strict_optimal
    assert batched.mode == "batched" and serial.mode == "serial"
    b, s = batched.to_dict(), serial.to_dict()
    b.pop("mode"), s.pop("mode")
    assert b == s


class TestEngineByteIdentity:
    @given(engine_cases())
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_serial(self, case):
        pf, queries = case
        serial = QueryExecutor(pf)
        report = BatchEngine(pf).execute(queries)
        assert len(report.results) == len(queries)
        for query, result in zip(queries, report.results):
            assert_results_identical(result, serial.execute(query))

    @given(engine_cases(), st.sampled_from(_STORES))
    @settings(max_examples=20, deadline=None)
    def test_batch_matches_serial_after_interleaved_writes(self, case, store):
        pf, queries = case
        if store is not None:
            pf = refile(pf, store)
        engine = BatchEngine(pf)
        serial = QueryExecutor(pf)
        engine.execute(queries)  # warm the present-set cache
        sizes = pf.filesystem.field_sizes
        rng = random.Random(7)
        live = stored_records(pf)
        for __ in range(6):
            if live and rng.random() < 0.5:
                assert pf.delete(live.pop(rng.randrange(len(live))))
            else:
                record = tuple(rng.randrange(s) for s in sizes)
                pf.insert(record)
                live.append(record)
            report = engine.execute(queries)
            for query, result in zip(queries, report.results):
                assert_results_identical(result, serial.execute(query))

    @given(engine_cases())
    @settings(max_examples=20, deadline=None)
    def test_fetch_buckets_matches_collect(self, case):
        pf, queries = case
        per_query, version = BatchEngine(pf).fetch_buckets(queries)
        assert version == pf.write_version
        serial = QueryExecutor(pf)
        for query, buckets in zip(queries, per_query):
            records = []
            for bucket_records in buckets.values():
                records.extend(bucket_records)
            assert sorted(map(str, records)) == sorted(
                map(str, serial.execute(query).records)
            )
            assert all(buckets.values())  # non-empty buckets only

    def test_duplicates_share_one_plan(self):
        method = make_method("fx", fields=(4, 4), devices=4)
        pf = PartitionedFile(method)
        pf.insert((1, 2))
        q = pf.query({0: 1})
        report = BatchEngine(pf).execute([q, q, q])
        assert report.duplicates_removed == 2
        assert [r.records for r in report.results] == [[(1, 2)]] * 3

    def test_sharing_is_reported(self):
        method = make_method("fx", fields=(4, 4), devices=4)
        pf = PartitionedFile(method)
        pf.insert((1, 2))
        q = pf.query({0: 1})
        report = BatchEngine(pf).execute([q, q])
        assert report.naive_reads == 2 * q.qualified_count
        assert report.unique_reads == q.qualified_count
        assert report.sharing_factor == 2.0


def counting(store_cls):
    """A *store_cls* subclass that counts ``records_in`` calls per bucket
    and listings of its stored buckets: ``buckets()`` calls, and
    ``tracked_buckets()`` calls where *store_cls* has that method."""

    class CountingStore(store_cls):
        def __init__(self):
            super().__init__()
            self.reads = Counter()
            self.listings = 0

        def records_in(self, bucket):
            self.reads[tuple(bucket)] += 1
            return super().records_in(bucket)

        def buckets(self):
            self.listings += 1
            return super().buckets()

    if hasattr(store_cls, "tracked_buckets"):

        def tracked_buckets(self):
            self.listings += 1
            return store_cls.tracked_buckets(self)

        CountingStore.tracked_buckets = tracked_buckets
    return CountingStore


class TestBatchReads:
    @pytest.mark.parametrize(
        "store_cls, fields, records, full_scan, bitmap",
        [
            (BucketStore, (8, 8, 8), 600, False, True),
            # Few records in 2^18 buckets, and a full scan that plans all
            # of them: only the stored ones may be read.
            (BucketStore, (64, 64, 64), 100, True, True),
            (ChecksummedBucketStore, (8, 8, 8), 600, False, True),
            # Read sets deduplicated by sorting instead of bitmaps.
            (BucketStore, (64, 64, 64), 100, True, False),
        ],
        ids=["dense", "sparse", "checksummed", "sparse-sorted"],
    )
    def test_batch_reads_each_needed_bucket_once(
        self, monkeypatch, store_cls, fields, records, full_scan, bitmap
    ):
        if not bitmap:
            monkeypatch.setattr(ArrayBatchPlanner, "BITMAP_DOMAIN_LIMIT", 0)
        method = make_method("fx", fields=fields, devices=8)
        pf = PartitionedFile(method, store_factory=counting(store_cls))
        rng = random.Random(5)
        for __ in range(records):
            pf.insert(tuple(rng.randrange(s) for s in fields))
        queries = [pf.query({1: 3})]
        for __ in range(6):
            first, last = rng.randrange(fields[0]), rng.randrange(fields[2])
            queries.append(pf.query({0: first, 2: last}))
        if full_scan:
            queries.append(pf.query({}))
        engine = BatchEngine(pf)
        engine.fetch_buckets(queries)
        written = method.device_of(
            pf.insert(tuple(rng.randrange(s) for s in fields))
        )
        for device in pf.devices:
            device.store.reads.clear()
            device.store.listings = 0
        engine.fetch_buckets(queries)
        # The write re-lists the stored buckets of its own device only.
        assert [device.store.listings for device in pf.devices] == [
            int(device.device_id == written) for device in pf.devices
        ]
        for device in pf.devices:
            planned = {
                bucket
                for query in queries
                for bucket in method.qualified_on_device(
                    device.device_id, query
                )
            }
            needed = [b for b in planned if device.store.has_bucket(b)]
            assert dict(device.store.reads) == dict.fromkeys(needed, 1)


def epochs(file):
    return [device.epoch for device in file.devices]


def advanced(before, file):
    """The devices whose epoch moved since *before*."""
    return {d for d, epoch in enumerate(epochs(file)) if epoch != before[d]}


class TestDeviceEpochs:
    """Every store change advances the epochs of exactly the devices it
    touched: what lets the engine keep a present set per device."""

    def test_record_writes(self):
        method = make_method("fx", fields=(8, 8), devices=8)
        pf = PartitionedFile(method)
        before = epochs(pf)
        owner = method.device_of(pf.insert((3, 5)))
        assert advanced(before, pf) == {owner}
        before = epochs(pf)
        assert not pf.delete((3, 6))
        assert advanced(before, pf) == set()
        assert pf.delete((3, 5))
        assert advanced(before, pf) == {owner}

    def test_migration_moves(self):
        fs = FileSystem.of(4, 8, m=8)
        pf = PartitionedFile(ModuloDistribution(fs))
        pf.insert_all([(i, f"name-{i % 11}") for i in range(12)])
        before = epochs(pf)
        report = Migration(pf, FXDistribution(fs)).apply()
        touched = {d for __, origin, to in report.moves for d in (origin, to)}
        assert 0 < len(touched) < fs.m
        assert advanced(before, pf) == touched
        for device in pf.devices:
            stats = device.stats
            assert stats.inserts - stats.deletes == device.record_count

    def test_scrub_repair(self):
        durable = make_durable_file("fx", fields=(4, 4), devices=8)
        durable.insert_all([(i, i % 4) for i in range(48)])
        store = durable.devices[2].store
        store.corrupt_bucket(min(store.buckets()), kind="tamper")
        before = epochs(durable)
        assert Scrubber(durable.file).sweep().repaired_pages == 1
        assert advanced(before, durable) == {2}

    def test_device_loss_and_rebuild(self):
        durable = make_durable_file("fx", fields=(4, 4), devices=8)
        durable.insert_all([(i, i % 4) for i in range(48)])
        before = epochs(durable)
        durable.file.lose_device(3)
        assert advanced(before, durable) == {3}
        before = epochs(durable)
        DeviceRebuilder(durable.file).rebuild(3)
        assert advanced(before, durable) == {3}

    def test_concurrent_writers_and_readers_share_one_engine(self):
        """Two readers scan through one engine while two writers insert,
        with thread switches forced often: every scan must see exactly
        the records its write version says were inserted."""
        pf = PartitionedFile(make_method("fx", fields=(16, 16), devices=16))
        engine = BatchEngine(pf)
        scan = pf.query({})
        done = threading.Event()
        torn = []

        def write(first):
            for value in range(first, first + 2000):
                pf.insert((value, value))

        def read():
            while not done.is_set():
                (buckets,), version = engine.fetch_buckets([scan])
                if sum(map(len, buckets.values())) != version:
                    torn.append(version)

        readers = [threading.Thread(target=read) for __ in range(2)]
        writers = [
            threading.Thread(target=write, args=(first,))
            for first in (0, 2000)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers + writers:
                thread.start()
            for thread in writers:
                thread.join(30.0)
        finally:
            done.set()
            for thread in readers:
                thread.join(30.0)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in readers + writers)
        assert torn == []
        (buckets,), version = engine.fetch_buckets([scan])
        assert sum(map(len, buckets.values())) == version == 4000


class TestSignatures:
    @given(engine_cases())
    @settings(max_examples=25, deadline=None)
    def test_vectorized_packing_matches_scalar(self, case):
        pf, queries = case
        strides = bucket_strides(pf.filesystem)
        vector = pack_queries(queries, strides)
        scalar = [pack_query(q, strides) for q in queries]
        assert vector == scalar

    def test_signature_distinguishes_specified_zero_from_unspecified(self):
        method = make_method("fx", fields=(4, 4), devices=4)
        fs = method.filesystem
        strides = bucket_strides(fs)
        zero = PartialMatchQuery.from_dict(fs, {0: 0})
        empty = PartialMatchQuery.from_dict(fs, {})
        assert pack_query(zero, strides) != pack_query(empty, strides)

    def test_dedupe_preserves_first_occurrence_order(self):
        method = make_method("fx", fields=(4, 4), devices=4)
        pf = PartitionedFile(method)
        a, b = pf.query({0: 1}), pf.query({1: 2})
        distinct, slot_of = dedupe_queries(
            [a, b, a, a, b], bucket_strides(pf.filesystem)
        )
        assert distinct == [0, 1]
        assert slot_of == [0, 1, 0, 0, 1]


class TestBatchKernel:
    @given(engine_cases())
    @settings(max_examples=25, deadline=None)
    def test_flat_batch_matches_iterator(self, case):
        pf, queries = case
        method = pf.method
        if not hasattr(method, "qualified_on_device_array"):
            return
        strides = bucket_strides(pf.filesystem)
        by_pattern = {}
        for q in queries:
            by_pattern.setdefault(q.pattern, []).append(q)
        for group in by_pattern.values():
            flat, counts = separable_qualified_flat_batch(
                method, group, strides
            )
            offset = 0
            for g, query in enumerate(group):
                for device in range(pf.filesystem.m):
                    expected = [
                        int(strides @ row)
                        for row in (
                            tuple(bucket)
                            for bucket in method.qualified_on_device(
                                device, query
                            )
                        )
                    ]
                    take = int(counts[g, device])
                    assert flat[offset : offset + take].tolist() == expected
                    offset += take
            assert offset == flat.size

    @given(
        st.sampled_from(["fx", "fx-basic", "gdm", "modulo", "zorder"]),
        st.lists(st.sampled_from([2, 4, 8]), min_size=1, max_size=3),
        st.sampled_from([2, 4, 8]),
    )
    @settings(max_examples=30, deadline=None)
    def test_pattern_plan_relabelled_by_fold_matches_iterator(
        self, name, sizes, m
    ):
        """For every pattern and every specified-value combination, the
        cached fold-0 plan read from device ``d ⊕ c`` (or ``d − c``) and
        shifted by the specified prefix is the reference iterator's
        enumeration on device ``d``, in order."""
        method = make_method(name, fields=tuple(sizes), devices=m)
        fs = method.filesystem
        strides = bucket_strides(fs)
        xor = method.combine == "xor"
        queries = []
        for mask in range(1 << fs.n_fields):
            pattern = frozenset(i for i in range(fs.n_fields) if mask >> i & 1)
            plan = pattern_plan(method, pattern, strides)
            specified = [i for i in range(fs.n_fields) if i not in pattern]
            for choice in itertools.product(
                *(range(fs.field_sizes[i]) for i in specified)
            ):
                query = PartialMatchQuery.from_dict(
                    fs, dict(zip(specified, choice))
                )
                queries.append(query)
                fold = 0
                for i, value in zip(specified, choice):
                    contribution = method.field_contribution(i, value)
                    fold = fold ^ contribution if xor else fold + contribution
                prefix = sum(
                    v * int(strides[i]) for i, v in zip(specified, choice)
                )
                for device in range(m):
                    source = device ^ fold if xor else (device - fold) % m
                    relabelled = plan.flat[
                        plan.starts[source]:plan.starts[source + 1]
                    ] + prefix
                    expected = [
                        int(strides @ np.asarray(bucket))
                        for bucket in separable_qualified_on_device(
                            method, device, query
                        )
                    ]
                    assert relabelled.tolist() == expected
        flat, counts = separable_qualified_flat_batch(method, queries, strides)
        assert counts.sum() == flat.size == sum(
            q.qualified_count for q in queries
        )

    def test_plan_cache_stays_within_its_byte_budget(self, monkeypatch):
        """Kept plans never exceed the budget; a plan larger than the
        whole budget is served correctly and not kept."""
        method = make_method("fx", fields=(8, 8, 8), devices=8)
        fs = method.filesystem
        strides = bucket_strides(fs)
        two_fields = pattern_plan(
            make_method("fx", fields=(8, 8, 8), devices=8),
            frozenset({0, 1}),
            strides,
        )
        # Room for one 64-bucket plan beside smaller ones, so they evict
        # each other, and never for the 512-bucket full scan.
        budget = 2 * two_fields.nbytes - 1
        monkeypatch.setattr(inverse, "PATTERN_PLAN_BUDGET", budget)
        rng = random.Random(4)
        for __ in range(60):
            spec = {
                i: rng.randrange(8) for i in range(3) if rng.random() < 0.5
            }
            query = PartialMatchQuery.from_dict(fs, spec)
            flat, counts = separable_qualified_flat_batch(
                method, [query], strides
            )
            expected = [
                int(strides @ np.asarray(bucket))
                for device in range(fs.m)
                for bucket in separable_qualified_on_device(
                    method, device, query
                )
            ]
            assert flat.tolist() == expected
            cache = method.__dict__["_pattern_plans"]
            assert cache.nbytes == sum(p.nbytes for p in cache.values())
            assert cache.nbytes <= budget
            assert (frozenset(range(3)), strides.tobytes()) not in cache
        assert 0 < len(cache) < 8

    def test_plan_cache_accounting_survives_racing_threads(self, monkeypatch):
        """Four threads plan every pattern of one method under a budget
        that forces evictions, with thread switches forced often: the
        kept bytes always add up and stay within the budget."""
        method = make_method("gdm", fields=(8, 8, 8), devices=8)
        fs = method.filesystem
        strides = bucket_strides(fs)
        monkeypatch.setattr(inverse, "PATTERN_PLAN_BUDGET", 1500)
        queries = [
            PartialMatchQuery.from_dict(
                fs, {i: 5 for i in range(3) if not mask >> i & 1}
            )
            for mask in range(8)
        ]
        expected = [
            separable_qualified_flat_batch(method, [q], strides)[0].tolist()
            for q in queries
        ]
        wrong = []

        def plan(offset):
            for k in range(200):
                index = (offset + k) % len(queries)
                flat, __ = separable_qualified_flat_batch(
                    method, [queries[index]], strides
                )
                if flat.tolist() != expected[index]:
                    wrong.append(index)

        threads = [
            threading.Thread(target=plan, args=(offset,))
            for offset in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        cache = method.__dict__["_pattern_plans"]
        assert cache.nbytes == sum(p.nbytes for p in cache.values())
        assert cache.nbytes <= 1500


class TestUniqueReads:
    @pytest.mark.parametrize("bitmap", [True, False], ids=["bitmap", "sorted"])
    @given(case=engine_cases())
    @settings(max_examples=20, deadline=None)
    def test_unique_reads_counts_distinct_planned_pairs(self, bitmap, case):
        """``unique_reads`` is the number of distinct planned (device,
        bucket) pairs, absent buckets included, on both sides of
        ``BITMAP_DOMAIN_LIMIT``; the engine's results stay serial's."""
        pf, queries = case
        limit = ArrayBatchPlanner.BITMAP_DOMAIN_LIMIT if bitmap else 0
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ArrayBatchPlanner, "BITMAP_DOMAIN_LIMIT", limit)
            plan = ArrayBatchPlanner(pf.method).plan(queries)
            report = BatchEngine(pf).execute(queries)
        pairs = {
            (device, tuple(bucket))
            for query in queries
            for device in range(pf.filesystem.m)
            for bucket in pf.method.qualified_on_device(device, query)
        }
        assert plan.unique_reads == report.unique_reads == len(pairs)
        serial = QueryExecutor(pf)
        for query, result in zip(queries, report.results):
            assert_results_identical(result, serial.execute(query))


class TestCorruptPages:
    """A damaged page fails the batch read that needs it, whether the
    engine lists the device's present set before or after the damage:
    ``corrupt_bucket`` bypasses the device, so its epoch does not move."""

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("reader", ["engine", "cache"])
    @pytest.mark.parametrize("kind", ["tamper", "drop"])
    def test_batch_read_raises_on_damaged_page(self, kind, reader, warm):
        method = make_method("fx", fields=(4, 4), devices=4)
        pf = PartitionedFile(
            method, store_factory=counting(ChecksummedBucketStore)
        )
        bucket = pf.insert((1, 2))
        store = next(
            d.store for d in pf.devices if d.store.has_bucket(bucket)
        )
        if reader == "engine":
            read = BatchEngine(pf).execute
        else:
            read = CachedExecutor(pf, capacity=16).lookup_batch
        if warm:
            # Lists every device's present set without reading *bucket*.
            read([pf.query({0: 0})])
        assert store.listings == int(warm) and not store.reads
        store.corrupt_bucket(bucket, kind=kind)
        with pytest.raises(CorruptPageError):
            read([pf.query({0: 1})])
        assert store.listings == 1


class TestBatchedCache:
    @given(engine_cases())
    @settings(max_examples=20, deadline=None)
    def test_lookup_batch_matches_serial_lookups(self, case):
        pf, queries = case
        batch_cache = CachedExecutor(pf, capacity=256)
        serial_cache = CachedExecutor(pf, capacity=256)
        batched = batch_cache.lookup_batch(queries)
        for query, lookup in zip(queries, batched):
            reference = serial_cache.lookup(query)
            got = [
                r
                for b, rs in lookup.buckets.items()
                if query.matches(b)
                for r in rs
            ]
            want = [
                r
                for b, rs in reference.buckets.items()
                if query.matches(b)
                for r in rs
            ]
            # Record order is a function of which entry answered (a
            # subsumption hit serves the subsumer entry's order) — that
            # varies with cache state in the serial path too, so the
            # invariant is the record multiset, not the sequence.
            assert sorted(map(str, got)) == sorted(map(str, want))
            assert lookup.version == reference.version

    def test_batched_fill_is_invalidated_by_writes(self):
        method = make_method("fx", fields=(4, 4), devices=4)
        pf = PartitionedFile(method)
        pf.insert((1, 2))
        cache = CachedExecutor(pf, capacity=16)
        q = pf.query({0: 1})
        (first,) = cache.lookup_batch([q])
        assert first.hit == "miss"
        (again,) = cache.lookup_batch([q])
        assert again.hit == "exact"
        pf.insert((1, 3))
        (fresh,) = cache.lookup_batch([q])
        assert fresh.hit == "miss"
        assert sum(len(rs) for rs in fresh.buckets.values()) == 2


class TestBatchedService:
    def test_execute_many_matches_serial(self):
        method = make_method("fx", fields=(8, 4), devices=4)
        pf = PartitionedFile(method)
        rng = random.Random(2)
        for __ in range(150):
            pf.insert((rng.randrange(8), rng.randrange(4)))
        serial = QueryExecutor(pf)
        service = QueryService(pf)
        queries = [pf.query({0: i}) for i in range(8)] + [pf.query({})]
        results = service.execute_many(queries)
        for query, result in zip(queries, results):
            assert result.ok and result.batched
            assert sorted(map(str, result.records)) == sorted(
                map(str, serial.execute(query).records)
            )

    def test_batched_reads_observe_completed_writes(self):
        method = make_method("fx", fields=(4, 4), devices=4)
        pf = PartitionedFile(method)
        service = QueryService(pf)
        q = pf.query({0: 1})
        assert service.execute_many([q])[0].records == []
        __, version = service.insert((1, 2))
        result = service.execute_many([q])[0]
        assert result.records == [(1, 2)]
        assert result.write_version >= version


class TestBatchedChecker:
    @pytest.mark.parametrize("name", ["fx", "gdm", "modulo"])
    def test_batched_replay_agrees_with_serial(self, name):
        reset_telemetry()
        method = make_method(name, fields=(8, 4, 8), devices=8)
        fs = method.filesystem
        rng = random.Random(1)
        queries = [
            PartialMatchQuery.from_dict(
                fs,
                {
                    i: rng.randrange(fs.field_sizes[i])
                    for i in range(fs.n_fields)
                    if rng.random() < 0.5
                },
            )
            for __ in range(25)
        ]
        checker = ObservedOptimalityChecker(method)
        serial = checker.replay(queries)
        batched = checker.replay(queries, batched=True)
        assert batched.consistent and batched.all_strict_optimal == (
            serial.all_strict_optimal
        )
        assert [o.observed_per_device for o in batched.observations] == [
            o.observed_per_device for o in serial.observations
        ]
