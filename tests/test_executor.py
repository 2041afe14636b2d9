"""Integration tests: partial match execution end to end."""

import pytest

from repro.core.fx import FXDistribution
from repro.distribution.base import SeparableMethod
from repro.distribution.modulo import ModuloDistribution
from repro.hashing.fields import FileSystem
from repro.query.partial_match import PartialMatchQuery
from repro.storage.costs import DiskCostModel, UnitCostModel
from repro.storage.executor import QueryExecutor
from repro.storage.parallel_file import PartitionedFile


def _loaded_file(method_factory, m=4, n_records=200):
    fs = FileSystem.of(4, 8, m=m)
    pf = PartitionedFile(method_factory(fs), cost_model=UnitCostModel())
    pf.insert_all([(i, f"name-{i % 17}") for i in range(n_records)])
    return pf


class TestExecutionCorrectness:
    @pytest.mark.parametrize(
        "method_factory", [FXDistribution, ModuloDistribution]
    )
    def test_search_returns_all_matching_bucket_records(self, method_factory):
        pf = _loaded_file(method_factory)
        result = pf.search({0: 42})
        # ground truth: scan every device's store directly
        query = pf.query({0: 42})
        expected = []
        for device in pf.devices:
            for bucket in device.store.buckets():
                if query.matches(bucket):
                    expected.extend(device.store.records_in(bucket))
        assert sorted(map(str, result.records)) == sorted(map(str, expected))

    def test_inserted_record_is_findable(self):
        pf = _loaded_file(FXDistribution)
        pf.insert((999, "needle"))
        result = pf.search({0: 999, 1: "needle"})
        assert (999, "needle") in result.records

    def test_bucket_counts_sum_to_qualified(self):
        pf = _loaded_file(FXDistribution)
        result = pf.search({0: 5})
        query = pf.query({0: 5})
        assert sum(result.buckets_per_device) == query.qualified_count

    def test_exact_match_touches_one_device(self):
        pf = _loaded_file(FXDistribution)
        result = pf.search({0: 3, 1: "name-4"})
        assert sum(1 for c in result.buckets_per_device if c) == 1

    def test_oracle_plans_apart_from_the_served_solver(self, monkeypatch):
        """``execute`` plans through the reference iterator, so it checks
        the per-pattern solver behind ``fetch_buckets`` independently."""
        pf = _loaded_file(FXDistribution)
        query = pf.query({0: 42})
        executor = QueryExecutor(pf)
        buckets, __ = executor.fetch_buckets(query)

        def served(self, device, query):
            raise RuntimeError("served solver called")

        monkeypatch.setattr(SeparableMethod, "qualified_on_device", served)
        result = executor.execute(query)
        assert sorted(map(str, result.records)) == sorted(
            str(record) for records in buckets.values() for record in records
        )
        with pytest.raises(RuntimeError, match="served solver"):
            executor.fetch_buckets(query)


class TestExecutionDiagnostics:
    def test_unit_cost_time_equals_largest_response(self):
        pf = _loaded_file(FXDistribution)
        query = pf.query({0: 7})
        result = QueryExecutor(pf).execute(query)
        assert result.response_time_ms == float(result.largest_response)

    def test_strict_optimal_flag_matches_method(self):
        pf = _loaded_file(FXDistribution)
        query = pf.query({0: 1})
        result = QueryExecutor(pf).execute(query)
        assert result.strict_optimal == pf.method.is_strict_optimal_for(query)

    def test_speedup_reflects_parallelism(self):
        pf = _loaded_file(FXDistribution, m=4)
        query = PartialMatchQuery.full_scan(pf.filesystem)
        result = QueryExecutor(pf).execute(query)
        # FX spreads the full scan perfectly: speedup == M
        assert result.speedup == pytest.approx(4.0)

    def test_summary_text(self):
        pf = _loaded_file(FXDistribution)
        result = pf.search({0: 2})
        text = result.summary()
        assert "records" in text
        assert "largest response" in text

    def test_speedup_degenerate_cases_reported_honestly(self):
        # Regression: zero response time with non-zero serial work used to
        # report a flat 1.0, hiding unbounded speedup behind "no speedup".
        from repro.storage.executor import ExecutionResult

        fs = FileSystem.of(4, 8, m=4)
        query = PartialMatchQuery.full_scan(fs)
        busy = ExecutionResult(
            query=query, response_time_ms=0.0, total_service_ms=7.5
        )
        assert busy.speedup == float("inf")
        idle = ExecutionResult(
            query=query, response_time_ms=0.0, total_service_ms=0.0
        )
        assert idle.speedup == 1.0
        assert idle.to_dict()["speedup"] == 1.0

    def test_disk_model_seek_included(self):
        fs = FileSystem.of(4, 8, m=4)
        pf = PartitionedFile(
            FXDistribution(fs),
            cost_model=DiskCostModel(seek_ms=10.0, transfer_ms_per_bucket=1.0),
        )
        pf.insert((0, "x"))
        query = PartialMatchQuery.full_scan(fs)
        result = QueryExecutor(pf).execute(query)
        # 32 buckets over 4 devices -> 8 per device -> 10 + 8 ms
        assert result.response_time_ms == pytest.approx(18.0)

    def test_empty_query_on_empty_file(self):
        fs = FileSystem.of(4, 8, m=4)
        pf = PartitionedFile(FXDistribution(fs))
        result = QueryExecutor(pf).execute(PartialMatchQuery.exact(fs, (0, 0)))
        assert result.records == []
        assert result.largest_response == 1  # one qualified bucket, one home


class TestCrossMethodComparison:
    def test_fx_response_never_worse_than_modulo_on_small_fields(self):
        """End-to-end restatement of the paper's section 5 comparison."""
        fs = FileSystem.of(4, 4, m=16)
        records = [(i, f"tag-{i % 13}") for i in range(300)]
        results = {}
        for name, factory in (
            ("fx", lambda f: FXDistribution(f, transforms=["I", "U"])),
            ("modulo", ModuloDistribution),
        ):
            pf = PartitionedFile(factory(fs), cost_model=UnitCostModel())
            pf.insert_all(records)
            query = PartialMatchQuery.full_scan(fs)
            results[name] = QueryExecutor(pf).execute(query).largest_response
        assert results["fx"] <= results["modulo"]
