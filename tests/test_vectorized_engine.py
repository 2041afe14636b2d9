"""Tests for the vectorised query engine fast paths.

The contract under test: every fast path (array inverse mapping,
pattern-grouped batch planning) must be *indistinguishable* from
the reference path it accelerates — bit-identical bucket arrays, byte-
identical reports, same records — across methods, combine rules, file
systems and query shapes.
"""

import itertools

import numpy as np
import pytest

from repro.core.fx import BasicFXDistribution, FXDistribution
from repro.core.inverse import (
    separable_qualified_on_device,
    separable_qualified_on_device_array,
)
from repro.distribution.gdm import GDMDistribution
from repro.distribution.modulo import ModuloDistribution
from repro.distribution.zorder import ZOrderDistribution
from repro.engine import ArrayBatchPlanner, BatchEngine
from repro.errors import DistributionError
from repro.hashing.fields import FileSystem
from repro.query.partial_match import PartialMatchQuery
from repro.query.patterns import all_patterns, representative_query
from repro.storage.executor import QueryExecutor
from repro.storage.parallel_file import PartitionedFile


def _method_factories():
    return [
        ("fx", lambda fs: FXDistribution(fs)),
        ("fx-basic", lambda fs: BasicFXDistribution(fs)),
        ("modulo", lambda fs: ModuloDistribution(fs)),
        (
            "gdm",  # even multipliers exercise non-injective solve fields
            lambda fs: GDMDistribution(
                fs, multipliers=tuple(2 + 2 * i for i in range(fs.n_fields))
            ),
        ),
        ("zorder", lambda fs: ZOrderDistribution(fs)),
    ]


FILESYSTEMS = [
    FileSystem.of(4, 8, m=8),
    FileSystem.of(2, 4, 8, m=4),
    FileSystem.of(16, 2, m=8),   # field larger than M: grouped pre-images
    FileSystem.of(4, 4, 4, m=16),
]


class TestQualifiedOnDeviceArray:
    @pytest.mark.parametrize("name,factory", _method_factories())
    @pytest.mark.parametrize("fs", FILESYSTEMS, ids=lambda fs: fs.describe())
    def test_bit_identical_to_iterator_over_full_grid(self, name, factory, fs):
        """Every (method, device, pattern): the array kernel and the
        method's per-pattern solver give the reference iterator's buckets
        in its order."""
        method = factory(fs)
        for pattern in all_patterns(fs.n_fields):
            zeros = representative_query(fs, pattern)
            # Specified values at their largest too: a fold of zeros hides
            # a slip in the group arithmetic.
            largest = PartialMatchQuery(fs, tuple(
                None if value is None else size - 1
                for value, size in zip(zeros.values, fs.field_sizes)
            ))
            for query, device in itertools.product(
                (zeros, largest), range(fs.m)
            ):
                expected = list(
                    separable_qualified_on_device(method, device, query)
                )
                got = separable_qualified_on_device_array(
                    method, device, query
                )
                assert got.dtype == np.int64
                assert got.shape == (len(expected), fs.n_fields)
                assert [tuple(row) for row in got.tolist()] == expected
                assert list(method.qualified_on_device(device, query)) == (
                    expected
                )

    def test_method_entry_point_validates(self):
        fs = FileSystem.of(4, 8, m=8)
        fx = FXDistribution(fs)
        query = PartialMatchQuery.from_dict(fs, {0: 1})
        other = PartialMatchQuery.full_scan(FileSystem.of(4, 8, m=4))
        for entry in (fx.qualified_on_device_array, fx.qualified_on_device):
            with pytest.raises(DistributionError):
                entry(fs.m, query)
            with pytest.raises(DistributionError):
                entry(0, other)
        # An equal but distinct file system passes the identity check's
        # fallback, the dataclass equality.
        twin = PartialMatchQuery.from_dict(FileSystem.of(4, 8, m=8), {0: 1})
        assert twin.filesystem is not fs
        for device in range(fs.m):
            assert list(fx.qualified_on_device(device, twin)) == list(
                fx.qualified_on_device(device, query)
            )

    def test_exact_match_hits_only_home_device(self):
        fs = FileSystem.of(4, 8, m=8)
        fx = FXDistribution(fs)
        bucket = (3, 6)
        query = PartialMatchQuery.exact(fs, bucket)
        home = fx.device_of(bucket)
        for device in range(fs.m):
            got = fx.qualified_on_device_array(device, query)
            if device == home:
                assert got.tolist() == [list(bucket)]
            else:
                assert got.shape == (0, fs.n_fields)

    def test_devices_partition_the_qualified_set(self):
        fs = FileSystem.of(4, 8, m=8)
        fx = FXDistribution(fs)
        query = PartialMatchQuery.from_dict(fs, {0: 2})
        rows = np.concatenate(
            [fx.qualified_on_device_array(d, query) for d in range(fs.m)]
        )
        assert sorted(map(tuple, rows.tolist())) == sorted(
            query.qualified_buckets()
        )

    def test_rows_land_on_the_claimed_device(self):
        fs = FileSystem.of(4, 4, 4, m=16)
        gdm = GDMDistribution(fs, multipliers=(2, 4, 6))
        query = PartialMatchQuery.from_dict(fs, {1: 3})
        for device in range(fs.m):
            got = gdm.qualified_on_device_array(device, query)
            if got.shape[0]:
                assert (gdm.devices_of_array(got) == device).all()


class TestDevicesOfArrayFastPaths:
    def test_return_type_is_ndarray(self):
        fx = FXDistribution(FileSystem.of(4, 8, m=4))
        assert isinstance(fx.devices_of_array([[0, 0]]), np.ndarray)

    def test_empty_batch_returns_typed_empty_array(self):
        fx = FXDistribution(FileSystem.of(4, 8, m=4))
        empty = fx.devices_of_array(np.empty((0, 2), dtype=np.int64))
        assert isinstance(empty, np.ndarray)
        assert empty.dtype == np.int64
        assert empty.shape == (0,)

    def test_contribution_arrays_cached_and_read_only(self):
        fx = FXDistribution(FileSystem.of(4, 8, m=4))
        first = fx.contribution_array(0)
        assert fx.contribution_array(0) is first
        assert not first.flags.writeable
        assert first.tolist() == fx.contribution_table(0)

    def test_cached_tables_used_by_devices_of_array(self):
        fs = FileSystem.of(4, 8, m=4)
        fx = FXDistribution(fs)
        buckets = np.array(list(fs.buckets()))
        # Two calls must agree with the scalar path (and reuse the cache).
        for __ in range(2):
            vectorised = fx.devices_of_array(buckets)
            assert vectorised.tolist() == [
                fx.device_of(tuple(b)) for b in buckets
            ]


class TestBatchPlanner:
    """Batch planning through ``ArrayBatchPlanner`` and the batch engine."""

    def _loaded(self, fs):
        pf = PartitionedFile(FXDistribution(fs))
        pf.insert_all([(i, f"n{i % 9}") for i in range(80)])
        return pf

    def test_plan_reads_match_execution(self):
        fs = FileSystem.of(4, 8, m=4)
        pf = self._loaded(fs)
        queries = [pf.query({0: 1}), PartialMatchQuery.full_scan(fs)]
        plan = ArrayBatchPlanner(pf.method).plan(queries)
        report = BatchEngine(pf).execute(queries)
        assert plan.unique_reads == report.unique_reads
        assert plan.naive_bucket_reads == report.naive_reads

    def test_batch_records_match_single_query_execution(self):
        fs = FileSystem.of(4, 8, m=4)
        pf = self._loaded(fs)
        queries = [pf.query({0: 1}), pf.query({1: "n3"}), pf.query({0: 1})]
        report = BatchEngine(pf).execute(queries)
        for query, result in zip(queries, report.results):
            assert result.records == QueryExecutor(pf).execute(query).records

    def test_non_separable_method_falls_back(self):
        from repro.distribution.random_alloc import RandomDistribution

        fs = FileSystem.of(4, 8, m=4)
        pf = PartitionedFile(RandomDistribution(fs, seed=3))
        pf.insert_all([(i, f"n{i % 5}") for i in range(40)])
        queries = [pf.query({0: 1}), pf.query({0: 1})]
        report = BatchEngine(pf).execute(queries)
        assert report.sharing_factor == pytest.approx(2.0)
        single = QueryExecutor(pf).execute(queries[0])
        assert [r.records for r in report.results] == [single.records] * 2
