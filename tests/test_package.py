"""Package-level sanity: public API surface, error hierarchy and the
rule that only a device mutates its store."""

import ast
import importlib
import pathlib

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
        assert repro.__version__ == "13.0.0"

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


class TestStoreOwnership:
    def test_only_the_device_mutates_a_store(self):
        """Device epochs are sound only if every store mutation goes
        through :class:`~repro.storage.device.SimulatedDevice`: no other
        module may call a store's mutators through ``.store``."""
        mutators = {"insert", "delete", "clear", "replace_bucket"}
        root = pathlib.Path(repro.__file__).resolve().parent
        found = []
        for path in sorted(root.rglob("*.py")):
            if path == root / "storage" / "device.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in mutators
                    and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr == "store"
                ):
                    found.append(f"{path.relative_to(root)}:{node.lineno}")
        assert found == []
