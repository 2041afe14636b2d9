"""Every public entry point raises subclasses of ReproError."""

import pytest

from repro import errors
from repro.errors import (
    AnalysisError,
    ConfigurationError,
    CorruptPageError,
    DistributionError,
    FieldValueError,
    NotPowerOfTwoError,
    QueryError,
    ReproError,
    StorageError,
)
from repro.hashing.fields import FileSystem

FS = FileSystem.of(4, 8, m=4)


class TestHierarchyShape:
    def test_every_exported_error_derives_from_repro_error(self):
        for name in errors.__all__:
            cls = getattr(errors, name)
            assert issubclass(cls, ReproError), name

    def test_configuration_errors_stay_value_errors(self):
        """Compatibility contract: callers catching ValueError keep working."""
        for cls in (ConfigurationError, NotPowerOfTwoError, FieldValueError,
                    DistributionError, QueryError):
            assert issubclass(cls, ValueError), cls

    def test_storage_errors_stay_runtime_errors(self):
        assert issubclass(StorageError, RuntimeError)
        assert issubclass(CorruptPageError, StorageError)
        assert issubclass(AnalysisError, RuntimeError)


class TestEntryPointsRaiseTyped:
    def test_filesystem_validation(self):
        with pytest.raises(NotPowerOfTwoError):
            FileSystem.of(3, 8, m=4)
        with pytest.raises(ConfigurationError):
            FileSystem.of(4, 8, m=5)

    def test_field_value_out_of_domain(self):
        from repro.distribution.gdm import GDMDistribution
        from repro.distribution.modulo import ModuloDistribution

        with pytest.raises(FieldValueError):
            ModuloDistribution(FS).field_contribution(0, 99)
        with pytest.raises(FieldValueError):
            GDMDistribution(FS, (3, 5)).field_contribution(1, -1)

    def test_bitops_and_numbers_raise_configuration_errors(self):
        from repro.core.bitops import truncate
        from repro.util.numbers import ceil_div, ilog2, modinv

        for call in (
            lambda: ilog2(0),
            lambda: ceil_div(1, 0),
            lambda: modinv(2, 4),
            lambda: truncate(-1, 4),
        ):
            with pytest.raises(ConfigurationError):
                call()
            with pytest.raises(ValueError):  # old contract still honoured
                call()

    def test_query_validation(self):
        from repro.query.partial_match import PartialMatchQuery

        with pytest.raises(QueryError):
            PartialMatchQuery.from_dict(FS, {7: 0})

    def test_cross_filesystem_query_rejected(self):
        from repro.core.fx import FXDistribution
        from repro.query.partial_match import PartialMatchQuery

        other = PartialMatchQuery.from_dict(FileSystem.of(4, 4, m=4), {0: 1})
        with pytest.raises(DistributionError):
            FXDistribution(FS).response_histogram(other)

    def test_double_failure_reports_lost_buckets(self):
        """Data no live replica holds is reported, not raised."""
        from repro.core.fx import FXDistribution
        from repro.distribution.replicated import ChainedReplicaScheme
        from repro.runtime import DegradedExecutor, FaultPlan
        from repro.storage.replicated_file import ReplicatedFile

        rf = ReplicatedFile(ChainedReplicaScheme(FXDistribution(FS)))
        rf.insert_all([(i % 4, i % 8) for i in range(16)])
        result = DegradedExecutor(rf, FaultPlan.fail([0, 1])).search({})
        assert result.lost_buckets > 0
        assert result.completeness < 1.0

    def test_analysis_errors(self):
        from repro.analysis.availability import (
            count_survivable_sets,
            reroute_histogram,
        )

        with pytest.raises(AnalysisError):
            count_survivable_sets(0, 1)
        with pytest.raises(AnalysisError):
            reroute_histogram([1, 1], {5})

    def test_one_except_clause_catches_everything(self):
        from repro.api import make_method
        from repro.runtime import FaultPlan, RetryPolicy

        attempts = (
            lambda: make_method("nope", fields=(4, 4), devices=4),
            lambda: FaultPlan(transient_error_rate=2.0),
            lambda: RetryPolicy(max_attempts=0),
            lambda: FileSystem.of(5, m=4),
        )
        for attempt in attempts:
            try:
                attempt()
            except ReproError:
                continue
            raise AssertionError(f"{attempt} did not raise a ReproError")
