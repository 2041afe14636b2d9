"""Tests for batch execution (through the batch engine) and vectorised bulk
device assignment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fx import FXDistribution
from repro.distribution.gdm import GDMDistribution
from repro.distribution.modulo import ModuloDistribution
from repro.engine import BatchEngine
from repro.errors import DistributionError, QueryError
from repro.hashing.fields import FileSystem
from repro.query.partial_match import PartialMatchQuery
from repro.storage.executor import QueryExecutor
from repro.storage.parallel_file import PartitionedFile

FS = FileSystem.of(4, 8, m=4)


class TestDevicesOfArray:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda fs: FXDistribution(fs),
            lambda fs: ModuloDistribution(fs),
            lambda fs: GDMDistribution(fs, multipliers=(3, 5)),
        ],
    )
    def test_matches_scalar_path(self, factory):
        method = factory(FS)
        buckets = np.array(list(FS.buckets()))
        vectorised = method.devices_of_array(buckets)
        scalar = [method.device_of(tuple(b)) for b in buckets]
        assert vectorised.tolist() == scalar

    def test_shape_validated(self):
        fx = FXDistribution(FS)
        with pytest.raises(DistributionError):
            fx.devices_of_array(np.zeros((3, 5), dtype=np.int64))

    def test_range_validated(self):
        fx = FXDistribution(FS)
        with pytest.raises(DistributionError):
            fx.devices_of_array([[0, 8]])

    def test_empty_batch(self):
        fx = FXDistribution(FS)
        assert fx.devices_of_array(np.empty((0, 2), dtype=np.int64)).size == 0

    @given(st.integers(0, 2**31), st.integers(1, 200))
    @settings(max_examples=20, deadline=None)
    def test_random_batches(self, seed, count):
        rng = np.random.default_rng(seed)
        buckets = np.column_stack(
            [rng.integers(0, size, size=count) for size in FS.field_sizes]
        )
        fx = FXDistribution(FS)
        vectorised = fx.devices_of_array(buckets)
        assert all(
            v == fx.device_of(tuple(int(x) for x in b))
            for v, b in zip(vectorised, buckets)
        )


class TestBatchExecutor:
    """Batch execution and read sharing through the batch engine."""

    def _loaded(self):
        pf = PartitionedFile(FXDistribution(FS))
        pf.insert_all([(i, f"n{i % 9}") for i in range(80)])
        return pf

    def test_identical_queries_fully_shared(self):
        pf = self._loaded()
        q = pf.query({0: 3})
        report = BatchEngine(pf).execute([q, q, q])
        assert report.sharing_factor == pytest.approx(3.0)
        assert report.unique_reads == q.qualified_count

    def test_records_match_single_query_execution(self):
        pf = self._loaded()
        queries = [pf.query({0: 1}), pf.query({1: "n3"}), pf.query({0: 2})]
        report = BatchEngine(pf).execute(queries)
        for query, result in zip(queries, report.results):
            assert result.records == QueryExecutor(pf).execute(query).records

    def test_disjoint_queries_share_nothing(self):
        pf = self._loaded()
        queries = [
            PartialMatchQuery.exact(FS, (0, 0)),
            PartialMatchQuery.exact(FS, (1, 1)),
        ]
        report = BatchEngine(pf).execute(queries)
        assert report.reads_saved == 0
        assert report.sharing_factor == 1.0

    def test_overlapping_queries_save_reads(self):
        pf = self._loaded()
        # both leave field 1 free and share field-0 slices partially via
        # the full scan
        queries = [pf.query({0: 3}), PartialMatchQuery.full_scan(FS)]
        report = BatchEngine(pf).execute(queries)
        assert report.reads_saved == 8  # the {0:3} slice is inside the scan
        assert report.unique_reads == FS.bucket_count

    def test_empty_batch(self):
        pf = self._loaded()
        report = BatchEngine(pf).execute([])
        assert report.results == []
        assert report.unique_reads == 0
        assert report.sharing_factor == 1.0
        assert report.response_time_ms == 0.0

    def test_foreign_query_rejected(self):
        pf = self._loaded()
        other = FileSystem.of(4, 8, m=8)
        with pytest.raises(QueryError):
            BatchEngine(pf).execute([PartialMatchQuery.full_scan(other)])
