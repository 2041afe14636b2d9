"""Package-level sanity: public API surface and error hierarchy."""

import importlib

import pytest

import repro
from repro.errors import (
    AnalysisError,
    ConfigurationError,
    DeviceFullError,
    DistributionError,
    FieldValueError,
    NotPowerOfTwoError,
    QueryError,
    ReproError,
    StorageError,
    TransformError,
)


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "3.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_docstring_example(self):
        """The example in the package docstring must actually work."""
        fs = repro.FileSystem.of(2, 8, m=4)
        fx = repro.FXDistribution(fs)
        assert fx.device_of((1, 6)) == 3
        q = repro.PartialMatchQuery.from_dict(fs, {0: 1})
        assert fx.response_histogram(q) == [2, 2, 2, 2]

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.distribution",
            "repro.hashing",
            "repro.query",
            "repro.storage",
            "repro.analysis",
            "repro.experiments",
            "repro.util",
        ],
    )
    def test_subpackages_importable(self, module):
        importlib.import_module(module)

    def test_registry_covers_paper_methods(self):
        names = repro.available_methods()
        assert {"fx", "fx-basic", "modulo", "gdm"} <= set(names)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            ConfigurationError,
            NotPowerOfTwoError,
            FieldValueError,
            TransformError,
            DistributionError,
            QueryError,
            StorageError,
            DeviceFullError,
            AnalysisError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_value_errors_catchable_as_valueerror(self):
        # Configuration mistakes should answer to the stdlib idiom too.
        assert issubclass(ConfigurationError, ValueError)
        assert issubclass(QueryError, ValueError)

    def test_not_power_of_two_carries_context(self):
        error = NotPowerOfTwoError("M", 12)
        assert error.name == "M"
        assert error.value == 12

    def test_library_raises_catchable_base(self):
        with pytest.raises(ReproError):
            repro.FileSystem.of(3, m=4)
