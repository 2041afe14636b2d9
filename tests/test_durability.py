"""Tests for the durability layer (``repro.durability``).

Covers the CRC page checksums and corruption detection, the write-ahead
log (framing, torn tails, crash injection), the crash-recovery
byte-identity property at *every* WAL record boundary, scrub-and-repair
from chained replicas, device rebuild with the post-rebuild optimality
check, the ``make_durable_file`` facade, and the ``repro recover`` CLI
group.
"""

import json
import struct
import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import obs
from repro.api import make_durable_file
from repro.cli import main
from repro.durability import (
    ChecksummedBucketStore,
    CrashPoint,
    DeviceRebuilder,
    DurableFile,
    Scrubber,
    WalEntry,
    WriteAheadLog,
    page_checksum,
    read_wal,
    recover,
)
from repro.durability.checksummed_store import TAMPERED_RECORD
from repro.errors import (
    ConfigurationError,
    CorruptPageError,
    RecoveryError,
    ReproError,
    SimulatedCrashError,
    StorageError,
    WalError,
)
from repro.obs import ManualClock, MonotonicClock, telemetry
from repro.runtime import DegradedExecutor, FaultInjector, FaultPlan
from repro.storage.bucket_store import content_digest


@pytest.fixture(autouse=True)
def _clean_telemetry():
    obs.configure(enabled=True, clock=MonotonicClock(), reset=True)
    yield
    obs.configure(enabled=True, clock=MonotonicClock(), reset=True)


def _records(count, domain=4):
    # Sweeps all domain^2 buckets before repeating, so every device of a
    # replicated 8-way layout holds pages once count >= 16.
    return [
        (i % domain, (i // domain) % domain) for i in range(count)
    ]


def _durable(records=24, devices=8, **opts):
    durable = make_durable_file("fx", fields=(4, 4), devices=devices, **opts)
    durable.insert_all(_records(records))
    return durable


# ----------------------------------------------------------------------
# Checksummed pages
# ----------------------------------------------------------------------
class TestChecksummedStore:
    def test_clean_reads_verify(self):
        store = ChecksummedBucketStore()
        store.insert((0, 1), (5, 6))
        store.insert((0, 1), (7, 8))
        assert store.records_in((0, 1)) == ((5, 6), (7, 8))
        assert store.verify_bucket((0, 1))
        assert store.checksum_count == 1
        store.check_invariants()

    def test_tamper_detected_on_read(self):
        store = ChecksummedBucketStore()
        store.insert((2,), (1,))
        store.corrupt_bucket((2,), kind="tamper")
        assert not store.verify_bucket((2,))
        with pytest.raises(CorruptPageError):
            store.records_in((2,))
        with pytest.raises(CorruptPageError):
            store.check_invariants()

    def test_drop_leaves_checksum_behind(self):
        store = ChecksummedBucketStore()
        store.insert((3,), (9,))
        store.corrupt_bucket((3,), kind="drop")
        assert not store.has_bucket((3,))
        assert store.tracked_buckets() == [(3,)]
        with pytest.raises(CorruptPageError):
            store.records_in((3,))

    def test_mutations_keep_checksums_current(self):
        store = ChecksummedBucketStore()
        store.insert((0,), (1,))
        store.insert((0,), (2,))
        assert store.delete((0,), (1,))
        assert store.records_in((0,)) == ((2,),)
        store.replace_bucket((0,), [(7,), (8,)])
        assert store.records_in((0,)) == ((7,), (8,))
        store.replace_bucket((0,), [])
        assert store.records_in((0,)) == ()
        assert store.checksum_count == 0

    def test_deleting_last_record_clears_checksum(self):
        store = ChecksummedBucketStore()
        store.insert((1,), (4,))
        store.delete((1,), (4,))
        assert store.checksum_count == 0
        assert store.records_in((1,)) == ()

    def test_tampered_record_is_distinctive(self):
        store = ChecksummedBucketStore()
        store.insert((0,), (1, 2))
        store.corrupt_bucket((0,))
        assert store._buckets[(0,)][0] == TAMPERED_RECORD

    def test_corrupting_absent_bucket_rejected(self):
        store = ChecksummedBucketStore()
        with pytest.raises(StorageError):
            store.corrupt_bucket((9,))
        store.insert((0,), (1,))
        with pytest.raises(ConfigurationError):
            store.corrupt_bucket((0,), kind="gamma-ray")

    def test_checksum_is_content_sensitive(self):
        assert page_checksum((0,), ((1,),)) != page_checksum((0,), ((2,),))
        assert page_checksum((0,), ((1,),)) != page_checksum((1,), ((1,),))


class TestContentDigest:
    def test_layout_independent(self):
        a = [((0,), ((1,), (2,))), ((1,), ((3,),))]
        b = list(reversed(a))
        assert content_digest(a) == content_digest(b)

    def test_content_sensitive(self):
        a = [((0,), ((1,),))]
        b = [((0,), ((2,),))]
        assert content_digest(a) != content_digest(b)


# ----------------------------------------------------------------------
# Write-ahead log
# ----------------------------------------------------------------------
class TestWal:
    def test_round_trip(self):
        wal = WriteAheadLog()
        wal.append("insert", (1, 2))
        wal.append("delete", (1, 2))
        wal.append("move", (3, 0))
        entries, torn = read_wal(wal.to_bytes())
        assert torn == 0
        assert [(e.op, e.record) for e in entries] == [
            ("insert", (1, 2)),
            ("delete", (1, 2)),
            ("move", (3, 0)),
        ]

    def test_unknown_op_rejected(self):
        with pytest.raises(ConfigurationError):
            WalEntry("truncate", (1,))

    def test_malformed_payload_rejected(self):
        with pytest.raises(WalError):
            WalEntry.from_payload(b"not json")
        with pytest.raises(WalError):
            WalEntry.from_payload(b'{"op": 3, "record": []}')

    def test_torn_final_frame_tolerated(self):
        wal = WriteAheadLog()
        wal.append("insert", (1,))
        wal.append("insert", (2,))
        data = wal.to_bytes()
        second_frame = WalEntry("insert", (2,)).frame()
        for cut in range(1, len(second_frame)):
            entries, torn = read_wal(data[:-cut])
            assert len(entries) == 1
            assert entries[0].record == (1,)
            assert torn == len(second_frame) - cut

    def test_mid_log_corruption_raises(self):
        wal = WriteAheadLog()
        wal.append("insert", (1,))
        wal.append("insert", (2,))
        data = bytearray(wal.to_bytes())
        data[10] ^= 0xFF  # inside the first frame's payload
        with pytest.raises(WalError):
            read_wal(bytes(data))

    def test_final_frame_crc_failure_is_torn_tail(self):
        wal = WriteAheadLog()
        wal.append("insert", (1,))
        wal.append("insert", (2,))
        data = bytearray(wal.to_bytes())
        data[-1] ^= 0xFF
        entries, torn = read_wal(bytes(data))
        assert len(entries) == 1
        assert torn > 0

    def test_from_bytes_truncates_torn_tail(self):
        wal = WriteAheadLog()
        wal.append("insert", (1,))
        frame = WalEntry("insert", (2,)).frame()
        data = wal.to_bytes() + frame[: len(frame) // 2]
        reopened = WriteAheadLog.from_bytes(data)
        assert reopened.entry_count == 1
        assert reopened.torn_bytes_discarded == len(frame) // 2
        reopened.append("insert", (3,))
        entries, torn = reopened.scan()
        assert torn == 0
        assert [e.record for e in entries] == [(1,), (3,)]

    def test_crash_point_fires_at_boundary(self):
        wal = WriteAheadLog(crash=CrashPoint(2))
        wal.append("insert", (1,))
        wal.append("insert", (2,))
        with pytest.raises(SimulatedCrashError):
            wal.append("insert", (3,))
        assert wal.crashed
        assert wal.entry_count == 2
        with pytest.raises(SimulatedCrashError):
            wal.append("insert", (4,))

    def test_crash_with_torn_tail_leaves_half_frame(self):
        wal = WriteAheadLog(crash=CrashPoint(1, torn_tail=True))
        wal.append("insert", (1,))
        clean_size = wal.byte_size
        with pytest.raises(SimulatedCrashError):
            wal.append("insert", (2,))
        assert wal.byte_size > clean_size
        entries, torn = wal.scan()
        assert len(entries) == 1 and torn > 0

    def test_negative_crash_boundary_rejected(self):
        with pytest.raises(ConfigurationError):
            CrashPoint(-1)

    def test_payload_nested_past_the_recursion_limit_rejected(self):
        payload = b"[" * 100_000
        frame = struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
        for data in (frame, frame + WalEntry("insert", (1,)).frame()):
            with pytest.raises(WalError, match="recursion"):
                read_wal(data)
            with pytest.raises(WalError, match="recursion"):
                WriteAheadLog.from_bytes(data)


def _real_log() -> tuple[bytes, list[WalEntry]]:
    """A log of every op, with and without meta, as a tenant writes it."""
    wal = WriteAheadLog()
    wal.append("insert", (1, 2), {"idem": "a.1"})
    wal.append("insert", (3, "x", 4.5))
    wal.append("move", (3, 0))
    wal.append("delete", (1, 2))
    wal.append("insert", (-7, None, True), {"idem": "b.2"})
    return wal.to_bytes(), wal.entries()


_LOG, _LOG_ENTRIES = _real_log()

#: JSON values that nest, as garbage frame payloads.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
_GARBAGE_PAYLOAD = st.one_of(
    st.binary(max_size=48),
    _JSON.map(lambda value: json.dumps(value).encode()),
    st.fixed_dictionaries(
        {"op": _JSON | st.sampled_from(["insert", "delete", "move"]),
         "record": _JSON, "meta": _JSON}
    ).map(lambda value: json.dumps(value).encode()),
    st.sampled_from([b"[" * 100_000, b"{" * 50_000, b"[" + b"9" * 5_000 + b"]"]),
)


def _frame(payload: bytes) -> bytes:
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


def _decode_or_typed_error(data: bytes):
    """Both decoders on *data*: entries, or a ReproError and nothing else."""
    try:
        entries, __ = read_wal(data)
    except ReproError:
        entries = None
    try:
        WriteAheadLog.from_bytes(data)
    except ReproError:
        assert entries is None
    return entries


class TestWalFuzz:
    """Damaged real logs decode to entries or raise typed errors only."""

    def test_truncated_at_every_offset_decodes_a_prefix(self):
        for cut in range(len(_LOG) + 1):
            entries = _decode_or_typed_error(_LOG[:cut])
            assert entries == _LOG_ENTRIES[: len(entries)]

    @given(st.lists(st.integers(0, len(_LOG) * 8 - 1), min_size=1, max_size=6))
    def test_bit_flips(self, bits):
        data = bytearray(_LOG)
        for bit in bits:
            data[bit // 8] ^= 1 << (bit % 8)
        _decode_or_typed_error(bytes(data))

    @given(
        st.lists(_GARBAGE_PAYLOAD, min_size=1, max_size=3),
        st.integers(0, len(_LOG)),
    )
    def test_followed_by_crc_valid_garbage_frames(self, payloads, cut):
        garbage = b"".join(_frame(payload) for payload in payloads)
        _decode_or_typed_error(_LOG[:cut] + garbage)
        entries = _decode_or_typed_error(_LOG + garbage)
        if entries is not None:
            assert entries[: len(_LOG_ENTRIES)] == _LOG_ENTRIES


# ----------------------------------------------------------------------
# Crash recovery byte-identity (the acceptance property)
# ----------------------------------------------------------------------
class TestCrashRecovery:
    RECORDS = _records(20)

    def _baseline_digests(self, **opts):
        durable = make_durable_file("fx", fields=(4, 4), devices=8, **opts)
        digests = [durable.state_digest()]
        for record in self.RECORDS:
            durable.insert(record)
            digests.append(durable.state_digest())
        return digests

    @pytest.mark.parametrize("torn_tail", [False, True])
    def test_byte_identity_at_every_boundary(self, torn_tail):
        digests = self._baseline_digests()
        for k in range(len(self.RECORDS) + 1):
            crashed = make_durable_file(
                "fx", fields=(4, 4), devices=8,
                crash_after=k, torn_tail=torn_tail,
            )
            try:
                crashed.insert_all(self.RECORDS)
            except SimulatedCrashError:
                pass
            assert crashed.wal.entry_count == k
            fresh = make_durable_file("fx", fields=(4, 4), devices=8)
            report = recover(crashed.wal, fresh.file)
            assert report.entries_replayed == k
            assert report.had_torn_tail == (torn_tail and k < len(self.RECORDS))
            assert fresh.state_digest() == digests[k]
            assert report.digest == digests[k]

    def test_recovery_from_raw_bytes(self):
        digests = self._baseline_digests()
        crashed = make_durable_file(
            "fx", fields=(4, 4), devices=8, crash_after=7, torn_tail=True
        )
        with pytest.raises(SimulatedCrashError):
            crashed.insert_all(self.RECORDS)
        fresh = make_durable_file("fx", fields=(4, 4), devices=8)
        report = recover(crashed.wal.to_bytes(), fresh.file)
        assert report.entries_replayed == 7
        assert report.had_torn_tail
        assert fresh.state_digest() == digests[7]

    def test_unreplicated_recovery(self):
        durable = make_durable_file(
            "fx", fields=(4, 4), devices=8, replicate=False, crash_after=5
        )
        with pytest.raises(SimulatedCrashError):
            durable.insert_all(self.RECORDS)
        baseline = make_durable_file(
            "fx", fields=(4, 4), devices=8, replicate=False
        )
        baseline.insert_all(self.RECORDS[:5])
        fresh = make_durable_file(
            "fx", fields=(4, 4), devices=8, replicate=False
        )
        durable.recover_into(fresh.file)
        assert fresh.state_digest() == baseline.state_digest()

    def test_deletes_replay(self):
        durable = _durable(records=10)
        durable.delete(self.RECORDS[0])
        fresh = make_durable_file("fx", fields=(4, 4), devices=8)
        report = recover(durable.wal, fresh.file)
        assert report.deletes == 1
        assert fresh.state_digest() == durable.state_digest()
        assert fresh.record_count == durable.record_count

    def test_move_entries_are_noops(self):
        wal = WriteAheadLog()
        wal.append("insert", (1, 2))
        wal.append("move", (1, 2))
        fresh = make_durable_file("fx", fields=(4, 4), devices=8)
        report = recover(wal, fresh.file)
        assert report.moves_skipped == 1
        assert fresh.record_count == 1

    def test_recovery_target_must_be_fresh(self):
        durable = _durable(records=4)
        with pytest.raises(RecoveryError):
            recover(durable.wal, durable.file)

    def test_arm_crash_mid_life(self):
        durable = _durable(records=4)
        durable.arm_crash(durable.wal.entry_count + 2)
        durable.insert((0, 0))
        durable.insert((1, 1))
        with pytest.raises(SimulatedCrashError):
            durable.insert((2, 2))
        assert durable.crashed

    def test_recovery_emits_span_and_counters(self):
        durable = make_durable_file(
            "fx", fields=(4, 4), devices=8, crash_after=3, torn_tail=True
        )
        with pytest.raises(SimulatedCrashError):
            durable.insert_all(self.RECORDS)
        fresh = make_durable_file("fx", fields=(4, 4), devices=8)
        recover(durable.wal, fresh.file)
        spans = [r for r in telemetry().events.records()
                 if r["type"] == "span" and r["name"] == "recovery.replay"]
        assert len(spans) == 1
        assert any(e["name"] == "wal.torn_tail" for e in spans[0]["events"])
        counters = telemetry().metrics.snapshot().counters
        assert counters["durability.wal_replayed"] == 3
        assert counters["durability.torn_tails"] == 1


# ----------------------------------------------------------------------
# Fault-plan corruption and crash kinds (satellite: golden draws)
# ----------------------------------------------------------------------
class TestCorruptionFaults:
    def test_plan_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(corruption_rate=1.0)
        with pytest.raises(ConfigurationError):
            FaultPlan(corruption_rate=-0.1)
        assert FaultPlan.corrupt(0.1).corruption_rate == 0.1
        assert not FaultPlan.corrupt(0.1).is_trivial
        assert "corruption" in FaultPlan.corrupt(0.1).describe()

    def test_corruption_draws_deterministic(self):
        injector = FaultInjector(FaultPlan.corrupt(0.3, seed=9), 8)
        again = FaultInjector(FaultPlan.corrupt(0.3, seed=9), 8)
        draws = [
            injector.page_corruption_kind(d, p)
            for d in range(8) for p in range(20)
        ]
        assert draws == [
            again.page_corruption_kind(d, p)
            for d in range(8) for p in range(20)
        ]
        assert any(draws) and not all(draws)

    def test_corruption_kind_partitions_draws(self):
        injector = FaultInjector(FaultPlan.corrupt(0.4, seed=3), 8)
        kinds = {
            injector.page_corruption_kind(d, p)
            for d in range(8) for p in range(30)
        }
        assert kinds == {None, "drop", "tamper"}
        # One draw per page: the same seed at half the rate corrupts a
        # subset of these pages, and drops a subset of the dropped ones.
        lower = FaultInjector(FaultPlan.corrupt(0.2, seed=3), 8)
        for d in range(8):
            for p in range(30):
                kind = injector.page_corruption_kind(d, p)
                low = lower.page_corruption_kind(d, p)
                assert low is None or kind is not None
                assert low != "drop" or kind == "drop"

    def test_sweep_index_changes_draws(self):
        injector = FaultInjector(FaultPlan.corrupt(0.3, seed=1), 8)
        first = [injector.page_corruption_kind(d, p, 0)
                 for d in range(8) for p in range(30)]
        second = [injector.page_corruption_kind(d, p, 1)
                  for d in range(8) for p in range(30)]
        assert first != second

    def test_zero_rate_never_corrupts(self):
        injector = FaultInjector(FaultPlan.none(), 8)
        assert all(
            injector.page_corruption_kind(d, p) is None
            for d in range(8) for p in range(50)
        )

    def test_golden_transient_draws_unchanged(self):
        """The seeded transient-fault stream must stay byte-identical
        across extensions of FaultPlan: these 120 draws were captured
        before corruption/crash kinds existed."""
        injector = FaultInjector(
            FaultPlan(seed=42, transient_error_rate=0.2), 8
        )
        bits = "".join(
            str(int(injector.attempt_fails(d, q, a)))
            for d in range(8) for q in range(5) for a in range(1, 4)
        )
        assert bits == (
            "0000000000000001000100001010000000010100000000010000000100001"
            "10000000000010001000000000000000000100000000000100010000000"
        )


# ----------------------------------------------------------------------
# Scrub and repair
# ----------------------------------------------------------------------
class TestScrubber:
    def test_clean_file_sweeps_clean(self):
        durable = _durable()
        report = Scrubber(durable.file).sweep()
        assert report.clean and report.healed
        assert report.pages_checked > 0
        assert report.devices_swept == 8

    def test_detects_and_repairs_injected_damage(self):
        durable = _durable(records=200)
        scrubber = Scrubber(durable.file)
        injector = FaultInjector(FaultPlan.corrupt(0.1, seed=7), 8)
        damaged = scrubber.inject(injector)
        assert damaged, "rate 0.1 over ~64 pages should damage something"
        report = scrubber.sweep()
        assert report.bad_pages == len(damaged)
        assert report.repaired_pages == len(damaged)
        assert report.healed
        verify = Scrubber(durable.file).sweep()
        assert verify.clean
        durable.check_invariants()

    def test_repair_restores_exact_content(self):
        durable = _durable(records=120)
        before = durable.state_digest()
        scrubber = Scrubber(durable.file)
        damaged = scrubber.inject(
            FaultInjector(FaultPlan.corrupt(0.15, seed=2), 8)
        )
        assert damaged
        scrubber.sweep()
        assert durable.state_digest() == before

    def test_injection_is_deterministic(self):
        plan = FaultPlan.corrupt(0.1, seed=5)
        first = Scrubber(_durable(records=150).file).inject(
            FaultInjector(plan, 8)
        )
        second = Scrubber(_durable(records=150).file).inject(
            FaultInjector(plan, 8)
        )
        assert first == second

    def test_both_replicas_bad_is_unrepairable(self):
        durable = _durable(records=60)
        file = durable.file
        bucket = next(iter(file.devices[0].store.buckets()), None)
        if bucket is None:
            pytest.skip("device 0 holds no buckets for this workload")
        primary, backup = file.scheme.replicas_of(bucket)
        file.devices[primary].store.corrupt_bucket(bucket, kind="tamper")
        file.devices[backup].store.corrupt_bucket(bucket, kind="tamper")
        report = Scrubber(file).sweep()
        assert not report.healed
        assert (primary, tuple(bucket)) in report.unrepairable
        assert (backup, tuple(bucket)) in report.unrepairable

    def test_dropped_page_found_via_partner(self):
        durable = _durable(records=60)
        file = durable.file
        bucket = next(iter(file.devices[0].store.buckets()))
        file.devices[0].store.corrupt_bucket(bucket, kind="drop")
        report = Scrubber(file).sweep()
        assert report.missing_pages >= 1
        assert report.healed
        assert file.devices[0].store.verify_bucket(bucket)

    def test_sweep_emits_span_events_and_counters(self):
        durable = _durable(records=120)
        scrubber = Scrubber(durable.file)
        damaged = scrubber.inject(
            FaultInjector(FaultPlan.corrupt(0.1, seed=7), 8)
        )
        scrubber.sweep()
        spans = [r for r in telemetry().events.records()
                 if r["type"] == "span" and r["name"] == "scrub.sweep"]
        assert len(spans) == 1
        detected = [e for e in spans[0]["events"]
                    if e["name"] == "corruption.detected"]
        repaired = [e for e in spans[0]["events"]
                    if e["name"] == "page.repaired"]
        assert len(detected) == len(damaged)
        assert len(repaired) == len(damaged)
        counters = telemetry().metrics.snapshot().counters
        assert counters["durability.corruption_detected"] == len(damaged)
        assert counters["durability.pages_repaired"] == len(damaged)

    def test_requires_replicated_checksummed_file(self):
        from repro.core.fx import FXDistribution
        from repro.hashing.fields import FileSystem
        from repro.storage.parallel_file import PartitionedFile

        fs = FileSystem.of(4, 4, m=8)
        with pytest.raises(ConfigurationError):
            Scrubber(PartitionedFile(FXDistribution(fs)))
        plain = make_durable_file(
            "fx", fields=(4, 4), devices=8, checksummed=False
        )
        with pytest.raises(ConfigurationError):
            Scrubber(plain.file)

    def test_injector_device_count_must_match(self):
        durable = _durable()
        with pytest.raises(ConfigurationError):
            Scrubber(durable.file).inject(
                FaultInjector(FaultPlan.corrupt(0.1), 4)
            )


# ----------------------------------------------------------------------
# Device rebuild
# ----------------------------------------------------------------------
class TestDeviceRebuilder:
    def test_rebuild_restores_digest(self):
        durable = _durable(records=200)
        before = durable.state_digest()
        durable.file.lose_device(3)
        assert durable.state_digest() != before
        report = DeviceRebuilder(durable.file).rebuild(3)
        assert durable.state_digest() == before
        assert report.buckets_restored > 0
        assert report.records_restored > 0
        assert 3 not in report.source_devices
        durable.check_invariants()

    def test_rebuild_verifies_optimality(self):
        from repro.query.workload import QueryWorkload, WorkloadSpec

        durable = _durable(records=200)
        durable.file.lose_device(5)
        queries = QueryWorkload(
            durable.filesystem,
            WorkloadSpec(exclude_trivial=True, seed=1),
        ).take(15)
        report = DeviceRebuilder(durable.file).rebuild(5, queries=queries)
        assert report.optimality_verified is True
        assert report.optimality_queries == 15
        assert "strict-optimal" in report.summary()

    def test_rebuilt_file_answers_queries(self):
        durable = _durable(records=100)
        served = DegradedExecutor(durable.file).search({0: 1})
        expected = sorted(served.records)
        durable.file.lose_device(0)
        around = DegradedExecutor(durable.file, FaultPlan.fail([0]))
        assert sorted(around.search({0: 1}).records) == expected
        DeviceRebuilder(durable.file).rebuild(0)
        rebuilt = DegradedExecutor(durable.file).search({0: 1})
        assert sorted(rebuilt.records) == expected

    def test_corrupt_source_aborts_rebuild(self):
        durable = _durable(records=200)
        file = durable.file
        file.lose_device(2)
        # Corrupt a surviving replica of a bucket device 2 must re-host.
        for partner in file.devices:
            if partner.device_id == 2:
                continue
            for bucket in partner.store.buckets():
                if 2 in file.scheme.replicas_of(bucket):
                    partner.store.corrupt_bucket(bucket, kind="tamper")
                    with pytest.raises(CorruptPageError):
                        DeviceRebuilder(file).rebuild(2)
                    return
        pytest.fail("no surviving replica found to corrupt")

    def test_rebuild_emits_span_and_counters(self):
        durable = _durable(records=100)
        durable.file.lose_device(1)
        report = DeviceRebuilder(durable.file).rebuild(1)
        spans = [r for r in telemetry().events.records()
                 if r["type"] == "span" and r["name"] == "rebuild.device"]
        assert len(spans) == 1
        assert any(e["name"] == "device.rebuilt" for e in spans[0]["events"])
        counters = telemetry().metrics.snapshot().counters
        assert counters["durability.devices_rebuilt"] == 1
        assert (
            counters["durability.records_restored"]
            == report.records_restored
        )

    def test_requires_replicated_file(self):
        plain = make_durable_file(
            "fx", fields=(4, 4), devices=8, replicate=False
        )
        with pytest.raises(RecoveryError):
            DeviceRebuilder(plain.file)

    def test_out_of_range_device_rejected(self):
        durable = _durable()
        with pytest.raises(StorageError):
            DeviceRebuilder(durable.file).rebuild(99)
        with pytest.raises(StorageError):
            durable.file.lose_device(99)


# ----------------------------------------------------------------------
# The construction facade
# ----------------------------------------------------------------------
class TestMakeDurableFile:
    def test_default_is_replicated_and_checksummed(self):
        durable = make_durable_file("fx", fields=(4, 4), devices=8)
        from repro.storage.replicated_file import ReplicatedFile

        assert isinstance(durable.file, ReplicatedFile)
        assert all(
            isinstance(d.store, ChecksummedBucketStore)
            for d in durable.devices
        )

    def test_unreplicated_variant(self):
        from repro.storage.parallel_file import PartitionedFile

        durable = make_durable_file(
            "modulo", fields=(4, 4), devices=8, replicate=False
        )
        assert isinstance(durable.file, PartitionedFile)
        assert isinstance(durable.devices[0].store, ChecksummedBucketStore)

    def test_crash_after_arms_the_wal(self):
        durable = make_durable_file(
            "fx", fields=(4, 4), devices=8, crash_after=2
        )
        assert durable.wal.crash == CrashPoint(2, torn_tail=False)

    def test_query_results_match_plain_file(self):
        durable = _durable(records=64)
        from repro.core.fx import FXDistribution
        from repro.storage.parallel_file import PartitionedFile

        plain = PartitionedFile(FXDistribution(durable.filesystem))
        plain.insert_all(_records(64))
        served = DegradedExecutor(durable.file).search({1: 2})
        assert sorted(served.records) == sorted(plain.search({1: 2}).records)


# ----------------------------------------------------------------------
# Migration audit entries
# ----------------------------------------------------------------------
class TestMigrationWal:
    def test_migration_logs_moves(self):
        from repro.core.fx import FXDistribution
        from repro.distribution.modulo import ModuloDistribution
        from repro.hashing.fields import FileSystem
        from repro.storage.migration import Migration
        from repro.storage.parallel_file import PartitionedFile

        fs = FileSystem.of(4, 8, m=4)
        pf = PartitionedFile(ModuloDistribution(fs))
        pf.insert_all([(i % 4, i % 8) for i in range(50)])
        wal = WriteAheadLog()
        report = Migration(pf, FXDistribution(fs), wal=wal).apply()
        assert wal.entry_count == report.records_moved
        assert all(e.op == "move" for e in wal.entries())
        spans = [r for r in telemetry().events.records()
                 if r["type"] == "span" and r["name"] == "migration.apply"]
        assert len(spans) == 1
        assert spans[0]["attrs"]["records_moved"] == report.records_moved


# ----------------------------------------------------------------------
# The recover CLI group
# ----------------------------------------------------------------------
class TestRecoverCli:
    def test_scrub_json(self, capsys):
        code = main([
            "recover", "scrub", "--fields", "4,4", "--devices", "8",
            "--records", "200", "--corruption-rate", "0.05", "--json",
        ])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["ok"]
        assert data["verify_clean"]
        assert data["sweep"]["repaired_pages"] == data["pages_damaged"]

    def test_replay_all_offsets_json(self, capsys):
        code = main([
            "recover", "replay", "--fields", "4,4", "--devices", "8",
            "--records", "12", "--all-offsets", "--torn-tail", "--json",
        ])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["byte_identical"]
        assert data["boundaries_tested"] == 13
        assert data["torn_tails_discarded"] == 12

    def test_replay_single_offset_table(self, capsys):
        code = main([
            "recover", "replay", "--fields", "4,4", "--devices", "8",
            "--records", "16", "--crash-after", "5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "byte-identical" in out

    def test_rebuild_json(self, capsys):
        code = main([
            "recover", "rebuild", "--fields", "4,4", "--devices", "8",
            "--records", "200", "--lose", "2", "--queries", "10", "--json",
        ])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["digest_identical"]
        assert data["optimality_verified"] is True
        assert data["device"] == 2

    def test_report_deterministic_json(self, capsys):
        argv = [
            "recover", "report", "--fields", "4,4", "--devices", "8",
            "--records", "32", "--deterministic-clock", "--json",
        ]
        code = main(argv)
        first = capsys.readouterr().out
        assert code == 0
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        data = json.loads(first)
        assert data["ok"]
        assert data["counters"]["durability.wal_replayed"] > 0

    def test_report_table(self, capsys):
        code = main([
            "recover", "report", "--fields", "4,4", "--devices", "8",
            "--records", "32",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Durability health report" in out
        assert "healthy" in out
