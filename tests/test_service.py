"""Tests for the concurrent query-serving front end.

The soak test here is the PR's acceptance criterion: many client threads
interleaving inserts and queries against one service must produce zero
exceptions, zero shed responses under ample capacity, and — verified by
serial replay of the request log — zero stale reads.
"""

import threading
import time

import pytest

from repro import obs
from repro.api import make_service
from repro.core.fx import FXDistribution
from repro.durability.checksummed_store import ChecksummedBucketStore
from repro.errors import ConfigurationError
from repro.hashing.fields import FileSystem
from repro.query.partial_match import PartialMatchQuery
from repro.service import (
    AdmissionController,
    LoadGenerator,
    LoadSpec,
    QueryService,
    ServiceConfig,
)
from repro.service.admission import ADMITTED, SHED, TIMEOUT
from repro.service.loadgen import op_log
from repro.storage.bucket_store import BucketStore
from repro.storage.executor import QueryExecutor
from repro.storage.parallel_file import PartitionedFile

FS = FileSystem.of(8, 8, m=4)


class SlowStore(BucketStore):
    """Bucket store with a per-bucket read delay, to make flights overlap."""

    delay_s = 0.002

    def records_in(self, bucket):
        time.sleep(self.delay_s)
        return super().records_in(bucket)


class GatedStore(BucketStore):
    """Bucket store whose reads block until the test opens the gate."""

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()

    def records_in(self, bucket):
        self.gate.wait(5.0)
        return super().records_in(bucket)


def _service(store_factory=None, records=48, **config_overrides):
    pf = PartitionedFile(FXDistribution(FS), store_factory=store_factory)
    pf.insert_all([(i, i % 11) for i in range(records)])
    return QueryService(pf, ServiceConfig(**config_overrides))


def _ground_truth(pf, query):
    records = []
    for device in pf.devices:
        for bucket in device.store.buckets():
            if query.matches(bucket):
                records.extend(device.store.records_in(bucket))
    return sorted(records)


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_admit_and_release(self):
        controller = AdmissionController(max_concurrent=2, queue_limit=0)
        first = controller.admit(None)
        second = controller.admit(None)
        assert first.outcome == second.outcome == ADMITTED
        assert controller.admit(None).outcome == SHED
        controller.release()
        assert controller.admit(None).outcome == ADMITTED
        controller.release()
        controller.release()

    def test_full_queue_sheds_immediately(self):
        controller = AdmissionController(max_concurrent=1, queue_limit=0)
        assert controller.admit(None).admitted
        decision = controller.admit(None)
        assert decision.outcome == SHED
        assert not decision.admitted
        controller.release()

    def test_queued_request_times_out_at_deadline(self):
        controller = AdmissionController(max_concurrent=1, queue_limit=4)
        assert controller.admit(None).admitted
        started = time.perf_counter()
        decision = controller.admit(deadline_ms=20.0)
        waited_ms = (time.perf_counter() - started) * 1000.0
        assert decision.outcome == TIMEOUT
        assert waited_ms >= 15.0
        controller.release()

    def test_queued_request_admitted_on_release(self):
        controller = AdmissionController(max_concurrent=1, queue_limit=4)
        assert controller.admit(None).admitted
        outcomes = []

        def waiter():
            outcomes.append(controller.admit(deadline_ms=2000.0))

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.02)
        controller.release()
        thread.join()
        assert outcomes[0].outcome == ADMITTED
        assert outcomes[0].queue_ms > 0.0
        controller.release()

    def test_configuration_validated(self):
        with pytest.raises(ConfigurationError):
            AdmissionController(max_concurrent=0)
        with pytest.raises(ConfigurationError):
            AdmissionController(queue_limit=-1)

    def test_service_sheds_explicitly_under_saturation(self):
        obs.reset_telemetry()
        service = _service(max_concurrent=1, queue_limit=0)
        assert service.admission.admit(None).admitted  # occupy the permit
        try:
            result = service.execute(service.file.query({0: 1}))
        finally:
            service.admission.release()
        assert result.status == "shed"
        assert not result.ok
        assert result.records == []
        counters = obs.telemetry().metrics.snapshot().counters
        assert counters.get("service.shed") == 1

    def test_service_timeout_reported_as_status(self):
        obs.reset_telemetry()
        service = _service(max_concurrent=1, queue_limit=4)
        assert service.admission.admit(None).admitted
        try:
            result = service.execute(
                service.file.query({0: 1}), deadline_ms=15.0
            )
        finally:
            service.admission.release()
        assert result.status == "timeout"
        counters = obs.telemetry().metrics.snapshot().counters
        assert counters.get("service.timeout") == 1


# ----------------------------------------------------------------------
# Coalescing
# ----------------------------------------------------------------------
class TestCoalescing:
    def test_followers_share_one_device_round_trip(self):
        obs.reset_telemetry()
        service = _service(store_factory=SlowStore, max_concurrent=16)
        query = PartialMatchQuery.full_scan(FS)
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        results = [None] * n_threads

        def client(i):
            barrier.wait()
            results[i] = service.execute(query)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert all(r.ok for r in results)
        expected = _ground_truth(service.file, query)
        for result in results:
            assert sorted(result.records) == expected
        counters = obs.telemetry().metrics.snapshot().counters
        # the acceptance criterion: coalescing measurably reduces
        # device round-trips — strictly fewer leader fetches than requests.
        # A request arriving after the flight retired leads again and hits
        # the cache, so leaders and followers still account for everyone.
        assert counters["service.requests"] == n_threads
        assert counters["service.leader_fetches"] < n_threads
        assert counters.get("service.coalesced", 0) >= 1
        assert counters["service.leader_fetches"] + counters[
            "service.coalesced"
        ] == n_threads

    def test_coalesced_and_uncoalesced_return_identical_records(self):
        """Leaders, followers and cache hits all return the serial
        oracle's records, in its order."""
        service = _service(store_factory=SlowStore, max_concurrent=16)
        query = service.file.query({0: 3})
        oracle = QueryExecutor(service.file).execute(query).records
        barrier = threading.Barrier(6)
        collected = [None] * 6

        def client(i):
            barrier.wait()
            collected[i] = service.execute(query)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert not any(thread.is_alive() for thread in threads)
        for result in collected:
            assert result.records == oracle

    def test_subsumed_query_joins_broad_flight(self):
        store_holder = []

        def store_factory():
            store = GatedStore()
            store_holder.append(store)
            return store

        service = _service(store_factory=store_factory)
        broad = PartialMatchQuery.full_scan(FS)
        narrow = service.file.query({0: 3})
        results = {}

        def leader():
            results["leader"] = service.execute(broad)

        def follower():
            results["follower"] = service.execute(narrow)

        leader_thread = threading.Thread(target=leader)
        leader_thread.start()
        deadline = time.perf_counter() + 5.0
        while not service._inflight and time.perf_counter() < deadline:
            time.sleep(0.001)
        assert service._inflight, "leader never registered its flight"
        follower_thread = threading.Thread(target=follower)
        follower_thread.start()
        time.sleep(0.02)  # let the follower reach the flight
        for store in store_holder:
            store.gate.set()
        leader_thread.join()
        follower_thread.join()

        assert results["leader"].ok and results["follower"].ok
        assert results["follower"].coalesced
        assert sorted(results["follower"].records) == _ground_truth(
            service.file, narrow
        )

    def test_stale_flight_is_not_joined_after_write(self):
        service = _service()
        query = service.file.query({0: 3})
        flight, leader = service._join_or_lead(query)
        assert leader
        service.insert((3, 7))  # bumps the write version mid-flight
        replacement, leader_again = service._join_or_lead(query)
        assert leader_again, "joined a flight older than a completed write"
        assert replacement is not flight
        service._retire(replacement)
        flight.fail(RuntimeError("abandoned by test"))

    def test_insert_versioned_is_atomic_under_contention(self):
        pf = PartitionedFile(FXDistribution(FS))
        versions = []
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def writer(i):
            barrier.wait()
            local = [
                pf.insert_versioned((i, j))[1] for j in range(25)
            ]
            with lock:
                versions.extend(local)

        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(versions) == list(range(1, 201))


class TestSingleQueryFetch:
    @pytest.mark.parametrize(
        "store_factory", [BucketStore, ChecksummedBucketStore]
    )
    def test_miss_reads_each_bucket_once(self, monkeypatch, store_factory):
        service = _service(store_factory)
        pf = service.file
        query = pf.query({0: 3})
        reads = []
        records_in = BucketStore.records_in

        def counting(store, bucket):
            reads.append(bucket)
            return records_in(store, bucket)

        monkeypatch.setattr(BucketStore, "records_in", counting)
        before = sum(device.stats.bucket_reads for device in pf.devices)
        result = service.execute(query)
        assert result.cache_hit == "miss"
        assert len(reads) == query.qualified_count
        after = sum(device.stats.bucket_reads for device in pf.devices)
        assert after - before == query.qualified_count
        assert result.records == QueryExecutor(pf).execute(query).records


# ----------------------------------------------------------------------
# The soak: the PR's acceptance criterion
# ----------------------------------------------------------------------
class TestSoak:
    def test_interleaved_soak_zero_stale_reads(self):
        service = _service(records=0, max_concurrent=8, queue_limit=64)
        spec = LoadSpec(
            clients=8,
            requests_per_client=40,
            seed=3,
            write_every=3,
            hot_fraction=0.5,
            preload=32,
        )
        report = LoadGenerator(service, spec).run()

        assert report.errors == []
        counts = report.status_counts()
        assert counts.get("shed", 0) == 0
        assert counts.get("timeout", 0) == 0
        assert counts.get("ok") == len(report.requests)
        # serial replay: byte-identical records, zero stale reads
        mismatches = report.verify(service.file.multikey_hash)
        assert mismatches == []

    def test_soak_with_cache_sees_hits_and_stays_fresh(self):
        obs.reset_telemetry()
        service = _service(records=0, cache_capacity=64, max_concurrent=8)
        spec = LoadSpec(
            clients=8,
            requests_per_client=30,
            seed=11,
            write_every=6,
            hot_fraction=0.7,
            hot_pool=3,
            preload=32,
        )
        report = LoadGenerator(service, spec).run()
        assert report.errors == []
        assert report.verify(service.file.multikey_hash) == []
        stats = service.cache.stats
        assert stats.exact_hits + stats.subsumption_hits > 0
        assert stats.write_invalidations > 0


# ----------------------------------------------------------------------
# Load generator determinism
# ----------------------------------------------------------------------
class TestLoadGenerator:
    def test_client_ops_deterministic_across_generators(self):
        spec = LoadSpec(clients=3, requests_per_client=20, seed=7,
                        write_every=4, hot_fraction=0.3)
        first, second = (_service().file.filesystem for __ in range(2))
        for client in range(spec.clients):
            assert op_log(first, spec, client) == op_log(second, spec, client)

    def test_different_seeds_differ(self):
        base = LoadSpec(clients=1, requests_per_client=20, seed=1)
        other = LoadSpec(clients=1, requests_per_client=20, seed=2)
        assert op_log(FS, base, 0) != op_log(FS, other, 0)

    def test_spec_validated(self):
        with pytest.raises(ConfigurationError):
            LoadSpec(clients=0)
        with pytest.raises(ConfigurationError):
            LoadSpec(hot_fraction=1.5)
        with pytest.raises(ConfigurationError):
            LoadSpec(write_every=-1)

    def test_report_percentiles_and_dict(self):
        service = _service()
        spec = LoadSpec(clients=2, requests_per_client=10, seed=0)
        report = LoadGenerator(service, spec).run()
        data = report.to_dict()
        assert data["requests"] == 20
        assert data["errors"] == 0
        assert data["p50_ms"] <= data["p95_ms"] <= data["p99_ms"]
        assert report.throughput_qps > 0
        with pytest.raises(ConfigurationError):
            report.latency_percentile(1.5)

    def test_batches_and_preload_run_in_process(self):
        service = _service(records=0)
        spec = LoadSpec(clients=2, requests_per_client=12, seed=4,
                        write_every=4, batch_every=3, batch_size=2,
                        preload=5)
        report = LoadGenerator(service, spec).run()
        assert report.errors == []
        # Per client: ops 4, 8 and 12 insert; 3, 6 and 9 are batches of
        # two; the other six are single queries.
        assert len(report.writes) == 2 * 3
        assert len(report.requests) == 2 * (3 * 2 + 6)
        assert any(r.result.batched for r in report.requests)
        assert [version for version, __ in report.preloaded] == [1, 2, 3, 4, 5]
        assert report.to_dict()["writes"] == 6
        assert report.verify(service.file.multikey_hash) == []


# ----------------------------------------------------------------------
# Facade and config
# ----------------------------------------------------------------------
class TestFacade:
    def test_make_service_round_trip(self):
        service = make_service("fx", fields=(4, 4), devices=4)
        bucket, version = service.insert((1, 2))
        assert version == 1
        result = service.execute(service.file.query({0: 1}))
        assert result.ok
        assert (1, 2) in [tuple(r) for r in result.records]

    def test_make_service_passes_method_options(self):
        service = make_service(
            "gdm", fields=(4, 4), devices=4, multipliers=(3, 5)
        )
        assert service.file.method.name == "gdm"

    def test_make_service_rejects_a_replica_scheme(self):
        """A chained replica scheme places no record on one device, so a
        service over it would fail on its first insert."""
        with pytest.raises(ConfigurationError, match="replicated"):
            make_service("replicated", fields=(4, 4), devices=4)

    def test_search_convenience(self):
        service = _service()
        result = service.search({0: 3})
        assert result.ok
        assert sorted(result.records) == _ground_truth(
            service.file, service.file.query({0: 3})
        )

    def test_invalid_deadline_rejected(self):
        with pytest.raises(ConfigurationError):
            _service(deadline_ms=0.0)
