"""Multi-subsystem integration scenarios.

Each test exercises a realistic flow across several subsystems — the kind
of composition bugs (stale caches after migration, stats after paged
growth, replication after re-declustering) that unit tests cannot see.
"""

import threading
from itertools import chain

import pytest

from repro.core.fx import FXDistribution
from repro.distribution.modulo import ModuloDistribution
from repro.distribution.replicated import ChainedReplicaScheme
from repro.durability.checksummed_store import ChecksummedBucketStore
from repro.durability.rebuild import DeviceRebuilder
from repro.engine import BatchEngine
from repro.engine.plan import ArrayBatchPlanner
from repro.hashing.fields import FileSystem
from repro.query.box import BoxQuery
from repro.query.partial_match import PartialMatchQuery
from repro.query.workload import QueryWorkload, WorkloadSpec
from repro.runtime import DegradedExecutor, FaultPlan
from repro.storage.btree_store import BTreeBucketStore
from repro.storage.bucket_store import BucketStore
from repro.storage.cache import CachedExecutor
from repro.storage.executor import QueryExecutor
from repro.storage.migration import Migration
from repro.storage.paged_store import PagedBucketStore
from repro.storage.parallel_file import PartitionedFile
from repro.storage.replicated_file import ReplicatedFile
from repro.storage.stats import collect_stats

FS = FileSystem.of(4, 8, m=8)
RECORDS = [(i, f"name-{i % 11}") for i in range(250)]


def _records_of(buckets):
    """The records of a ``fetch_buckets`` bucket map, sorted."""
    return sorted(map(str, chain.from_iterable(buckets.values())))


class _Race:
    """The other side of a race: started on a second thread the first time
    it is called, from inside the window under test, and given 0.3 s —
    enough to run to the end unless it waits for a lock the caller holds.
    """

    def __init__(self, side):
        self._side = side
        self._thread = None

    def __call__(self):
        if self._thread is None:
            self._thread = threading.Thread(target=self._side, daemon=True)
            self._thread.start()
            self._thread.join(0.3)

    def finish(self):
        assert self._thread is not None, "the window was never reached"
        self._thread.join(10.0)
        assert not self._thread.is_alive()


class TestMigrationWithCache:
    def test_cache_invalidation_after_migration_keeps_results_correct(self):
        """A cache warmed before ``Migration.apply`` needs no invalidation:
        entries are keyed by bucket, and a migration moves records between
        devices without changing a bucket or the write version."""
        for factory in (None, ChecksummedBucketStore):
            pf = PartitionedFile(ModuloDistribution(FS), store_factory=factory)
            pf.insert_all(RECORDS)
            cached = CachedExecutor(pf, capacity=8)
            broad = pf.query({0: 13})
            cached.execute(broad)
            version = pf.write_version
            Migration(pf, FXDistribution(FS)).apply()
            assert pf.write_version == version
            queries = [broad] + [
                pf.query({0: 13, 1: f"name-{v}"}) for v in range(11)
            ]
            oracle = QueryExecutor(pf)
            hits = []
            for query in queries:
                lookup = cached.lookup(query)
                hits.append(lookup.hit)
                assert lookup.collect() == oracle.execute(query).records
            assert hits == ["exact"] + ["subsumption"] * 11
            pf.check_invariants()

    def test_batch_execution_after_migration(self):
        for factory in (None, ChecksummedBucketStore):
            self._check_batches_after_migration(factory)

    @staticmethod
    def _check_batches_after_migration(factory):
        pf = PartitionedFile(ModuloDistribution(FS), store_factory=factory)
        pf.insert_all(RECORDS)
        queries = [pf.query({0: v}) for v in range(8)]
        single_before = [
            sorted(map(str, QueryExecutor(pf).execute(q).records))
            for q in queries
        ]
        # An engine and a cache that each served a batch before the swap:
        # the migration moves buckets without a write, so neither may plan
        # the old placement or trust its present sets.
        engine = BatchEngine(pf)
        engine.execute(queries)
        cached = CachedExecutor(pf, capacity=8)
        cached.lookup_batch([pf.query({1: "name-3"})])
        Migration(pf, FXDistribution(FS)).apply()
        fresh = BatchEngine(pf)
        for report in (fresh.execute(queries), engine.execute(queries)):
            for expected, got in zip(single_before, report.results):
                assert sorted(map(str, got.records)) == expected
        lookups = cached.lookup_batch(queries)
        for expected, lookup in zip(single_before, lookups):
            assert lookup.hit == "miss"
            assert sorted(map(str, lookup.collect())) == expected

    # A read that overlaps ``Migration.apply`` sees the file entirely before
    # or entirely after it.  Each race test opens one window with a hook,
    # races the other side through it, and checks the reader's records.
    @staticmethod
    def _file():
        pf = PartitionedFile(ModuloDistribution(FS))
        pf.insert_all(RECORDS)
        queries = [pf.query({0: v}) for v in range(8)] + [pf.query({})]
        expected = [
            sorted(map(str, QueryExecutor(pf).execute(q).records))
            for q in queries
        ]
        return pf, queries, expected

    def test_reads_wait_for_the_moves_and_the_method_swap(self, monkeypatch):
        pf, queries, expected = self._file()
        engine = BatchEngine(pf)
        engine.fetch_buckets(queries)  # present sets from before the moves
        got = []

        def read():
            maps, __ = engine.fetch_buckets(queries)
            got.append([_records_of(buckets) for buckets in maps])
            serial = QueryExecutor(pf)
            got.append(
                [_records_of(serial.fetch_buckets(q)[0]) for q in queries]
            )

        race = _Race(read)
        delete = BucketStore.delete

        def delete_then_read(store, bucket, record):
            removed = delete(store, bucket, record)
            race()
            return removed

        monkeypatch.setattr(BucketStore, "delete", delete_then_read)
        Migration(pf, FXDistribution(FS)).apply()
        race.finish()
        assert got == [expected, expected]

    def test_engine_plans_under_the_lock_it_reads_under(self, monkeypatch):
        pf, queries, expected = self._file()
        engine = BatchEngine(pf)
        engine.fetch_buckets(queries)
        race = _Race(Migration(pf, FXDistribution(FS)).apply)
        plan = ArrayBatchPlanner.plan

        def plan_then_migrate(planner, batch):
            planned = plan(planner, batch)
            race()
            return planned

        monkeypatch.setattr(ArrayBatchPlanner, "plan", plan_then_migrate)
        maps, __ = engine.fetch_buckets(queries)
        race.finish()
        assert [_records_of(buckets) for buckets in maps] == expected
        assert pf.method.name == "fx"

    def test_single_query_fetch_reads_the_method_under_its_lock(
        self, monkeypatch
    ):
        pf, queries, expected = self._file()
        race = _Race(Migration(pf, FXDistribution(FS)).apply)

        def method_then_migrate(executor):
            method = executor.file.method
            race()
            return method

        monkeypatch.setattr(
            QueryExecutor, "method", property(method_then_migrate)
        )
        buckets, __ = QueryExecutor(pf).fetch_buckets(queries[-1])
        race.finish()
        assert _records_of(buckets) == expected[-1]
        assert pf.method.name == "fx"


local_stores = pytest.mark.parametrize(
    "factory",
    [
        None,
        lambda: BTreeBucketStore(t=3),
        lambda: PagedBucketStore(page_capacity=3),
    ],
    ids=["hash-dir", "btree", "paged"],
)


class TestStoresUnderLoad:
    @local_stores
    def test_all_local_stores_serve_identical_results(self, factory):
        pf = PartitionedFile(FXDistribution(FS), store_factory=factory)
        pf.insert_all(RECORDS)
        result = pf.search({1: "name-7"})
        reference = PartitionedFile(FXDistribution(FS))
        reference.insert_all(RECORDS)
        expected = reference.search({1: "name-7"})
        assert sorted(map(str, result.records)) == sorted(
            map(str, expected.records)
        )
        pf.check_invariants()

    @local_stores
    def test_all_local_stores_rebuild_a_lost_device(self, factory):
        rf = ReplicatedFile(
            ChainedReplicaScheme(FXDistribution(FS)), store_factory=factory
        )
        rf.insert_all(RECORDS)
        before = rf.state_digest()
        rf.lose_device(2)
        assert rf.state_digest() != before
        report = DeviceRebuilder(rf).rebuild(2)
        assert report.records_restored > 0
        assert rf.state_digest() == before
        rf.check_invariants()

    def test_stats_snapshot_reflects_paged_store(self):
        pf = PartitionedFile(
            FXDistribution(FS),
            store_factory=lambda: PagedBucketStore(page_capacity=2),
        )
        pf.insert_all(RECORDS)
        stats = collect_stats(pf)
        assert stats.total_records == len(RECORDS)
        assert all(snap.pages is not None for snap in stats.devices)
        assert 0.0 <= stats.record_gini < 1.0
        assert "records" in stats.render()

    def test_stats_snapshot_plain_store_has_no_pages(self):
        pf = PartitionedFile(FXDistribution(FS))
        pf.insert_all(RECORDS)
        stats = collect_stats(pf)
        assert all(snap.pages is None for snap in stats.devices)


class TestReplicationOverMigratedLayout:
    def test_replicated_file_with_zorder_base(self):
        from repro.distribution.zorder import ZOrderDistribution

        rf = ReplicatedFile(ChainedReplicaScheme(ZOrderDistribution(FS)))
        rf.insert_all(RECORDS)
        runtime = DegradedExecutor(rf, FaultPlan.fail([5]))
        result = runtime.execute(PartialMatchQuery.full_scan(FS))
        assert len(result.records) == len(RECORDS)
        rf.check_invariants()


class TestWorkloadAcrossQueryClasses:
    def test_partial_match_and_box_agree_on_shared_semantics(self):
        pf = PartitionedFile(FXDistribution(FS))
        pf.insert_all(RECORDS)
        executor = QueryExecutor(pf)
        workload = QueryWorkload(FS, WorkloadSpec(seed=21))
        for query in workload.take(30):
            plain = executor.execute(query)
            boxed = executor.execute_box(BoxQuery.from_partial_match(query))
            assert sorted(map(str, plain.records)) == sorted(
                map(str, boxed.records)
            )
            assert plain.buckets_per_device == boxed.buckets_per_device

    def test_mixed_pipeline_cache_then_box_then_stats(self):
        pf = PartitionedFile(FXDistribution(FS))
        pf.insert_all(RECORDS)
        cached = CachedExecutor(pf, capacity=4)
        cached.execute(PartialMatchQuery.full_scan(FS))
        cached.execute(pf.query({0: 3}))
        assert cached.stats.hit_rate > 0.0
        box = BoxQuery.from_spec(FS, {1: (0, 3)})
        result = QueryExecutor(pf).execute_box(box)
        assert sum(result.buckets_per_device) == box.qualified_count
        stats = collect_stats(pf)
        assert stats.total_records == len(RECORDS)
