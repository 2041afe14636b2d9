"""Tests for chained replica placement and failure masking.

Which devices are down is a :class:`FaultPlan`'s to say; every read here
goes through :class:`DegradedExecutor`, the one read that routes around
them.
"""

import pytest

from repro.core.fx import FXDistribution
from repro.distribution.modulo import ModuloDistribution
from repro.distribution.replicated import ChainedReplicaScheme
from repro.errors import ConfigurationError, StorageError
from repro.hashing.fields import FileSystem
from repro.query.partial_match import PartialMatchQuery
from repro.runtime import DegradedExecutor, FaultPlan
from repro.storage.replicated_file import ReplicatedFile

FS = FileSystem.of(4, 8, m=4)


def _scheme(offset=1):
    return ChainedReplicaScheme(FXDistribution(FS), offset=offset)


def _scan(rf, failed=()):
    """A full scan of *rf* with the devices in *failed* down."""
    runtime = DegradedExecutor(rf, FaultPlan.fail(failed))
    return runtime.execute(PartialMatchQuery.full_scan(FS))


class TestChainedReplicaScheme:
    def test_backup_is_offset_primary(self):
        scheme = _scheme()
        for bucket in FS.buckets():
            primary, backup = scheme.replicas_of(bucket)
            assert backup == (primary + 1) % 4
            assert primary == scheme.primary_of(bucket)
            assert backup == scheme.backup_of(bucket)

    def test_replicas_always_distinct(self):
        scheme = _scheme(offset=3)
        assert all(
            len(set(scheme.replicas_of(b))) == 2 for b in FS.buckets()
        )

    def test_zero_offset_rejected(self):
        with pytest.raises(ConfigurationError):
            _scheme(offset=0)

    def test_offset_multiple_of_m_rejected(self):
        with pytest.raises(ConfigurationError):
            _scheme(offset=8)

    def test_single_device_rejected(self):
        fs = FileSystem.of(4, m=1)
        with pytest.raises(ConfigurationError):
            ChainedReplicaScheme(ModuloDistribution(fs))

    def test_describe(self):
        assert "chained(+1)" in _scheme().describe()


class TestDualWrites:
    def test_each_record_stored_twice(self):
        rf = ReplicatedFile(_scheme())
        rf.insert_all([(i, f"r{i}") for i in range(40)])
        assert rf.record_count == 40
        physical = sum(device.record_count for device in rf.devices)
        assert physical == 80
        rf.check_invariants()

    def test_invariant_detects_misplacement(self):
        rf = ReplicatedFile(_scheme())
        bucket = (0, 0)
        wrong = next(
            d
            for d in range(4)
            if d not in rf.scheme.replicas_of(bucket)
        )
        rf.devices[wrong].insert(bucket, ("rogue",))
        with pytest.raises(StorageError):
            rf.check_invariants()


class TestHealthyReads:
    def test_search_equals_unreplicated_results(self):
        rf = ReplicatedFile(_scheme())
        records = [(i, f"name-{i % 6}") for i in range(100)]
        rf.insert_all(records)
        result = DegradedExecutor(rf).search({1: "name-3"})
        expected = [r for r in records if r[1] == "name-3"]
        # hashing may co-locate other records in qualified buckets, but all
        # true matches must be present exactly once
        for record in expected:
            assert result.records.count(record) == 1

    def test_no_backup_reads_when_healthy(self):
        rf = ReplicatedFile(_scheme())
        rf.insert_all([(i, "x") for i in range(20)])
        assert _scan(rf).failovers == 0

    def test_no_duplicate_records_from_replicas(self):
        rf = ReplicatedFile(_scheme())
        rf.insert((5, "only-once"))
        assert _scan(rf).records.count((5, "only-once")) == 1


class TestFailureMasking:
    def _loaded(self):
        rf = ReplicatedFile(_scheme())
        rf.insert_all([(i, f"n{i}") for i in range(120)])
        return rf

    def test_single_failure_masks(self):
        result = _scan(self._loaded(), {2})
        assert result.failovers > 0
        assert result.buckets_per_device[2] == 0
        assert sum(result.buckets_per_device) == FS.bucket_count
        # every logical record still retrievable exactly once
        assert len(result.records) == 120

    def test_failed_load_lands_on_neighbour(self):
        rf = self._loaded()
        healthy = _scan(rf).buckets_per_device
        degraded = _scan(rf, {1}).buckets_per_device
        assert degraded[1] == 0
        assert degraded[2] == healthy[2] + healthy[1]
        assert degraded[0] == healthy[0]

    def test_adjacent_pair_failure_loses_data(self):
        # device 2 holds the backups of device 1's primaries
        result = _scan(self._loaded(), {1, 2})
        assert result.lost_buckets > 0
        assert result.completeness < 1.0
        assert len(result.records) < 120

    def test_non_adjacent_pair_failure_survives(self):
        result = _scan(self._loaded(), {0, 2})
        assert len(result.records) == 120

    def test_restore_clears_masking(self):
        rf = self._loaded()
        assert _scan(rf, {3}).failovers > 0
        result = _scan(rf)  # a plan that no longer fails device 3
        assert result.failovers == 0
        assert result.failed_devices == ()

    def test_fail_unknown_device(self):
        with pytest.raises(ConfigurationError):
            _scan(self._loaded(), {9})

    def test_degraded_strict_optimality_lost(self):
        """Degraded mode roughly doubles one device's share, so a strict
        optimal query generally stops being strict optimal."""
        rf = self._loaded()
        assert _scan(rf).strict_optimal
        assert not _scan(rf, {0}).strict_optimal
