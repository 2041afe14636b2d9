"""Tests for the construction facade (repro.api)."""

import subprocess
import sys

import pytest

import repro
import repro.distribution as distribution
from repro.api import default_gdm_multipliers, make_method, method_names
from repro.core.fx import BasicFXDistribution, FXDistribution
from repro.distribution.base import available_methods, create_method
from repro.distribution.gdm import GDMDistribution
from repro.distribution.replicated import ChainedReplicaScheme
from repro.errors import ConfigurationError, ReproError
from repro.hashing.fields import FileSystem

FIELDS = (4, 8)
DEVICES = 8
FS = FileSystem.of(*FIELDS, m=DEVICES)


def _same_placement(a, b):
    return all(a.device_of(bucket) == b.device_of(bucket)
               for bucket in FS.buckets())


class TestMakeMethod:
    def test_covers_every_registered_name(self):
        names = method_names()
        assert set(available_methods()) <= set(names)
        assert "replicated" in names
        for name in names:
            built = make_method(name, fields=FIELDS, devices=DEVICES)
            assert built is not None

    @pytest.mark.parametrize("name", sorted(available_methods()))
    def test_identical_to_direct_constructor(self, name):
        """The facade must be behaviourally identical to the old
        constructors for every registered method name."""
        via_facade = make_method(name, fields=FIELDS, devices=DEVICES)
        if name == "gdm":
            direct = GDMDistribution(
                FS, multipliers=default_gdm_multipliers(FS.n_fields)
            )
        else:
            direct = create_method(name, FS)
        assert _same_placement(via_facade, direct)
        assert via_facade.describe() == direct.describe()

    def test_fx_options_forwarded(self):
        theorem9 = make_method(
            "fx", fields=FIELDS, devices=DEVICES, policy="theorem9"
        )
        assert _same_placement(theorem9, FXDistribution(FS, policy="theorem9"))
        basic = make_method("fx-basic", fields=FIELDS, devices=DEVICES)
        assert _same_placement(basic, BasicFXDistribution(FS))

    def test_gdm_explicit_multipliers_and_preset(self):
        explicit = make_method(
            "gdm", fields=FIELDS, devices=DEVICES, multipliers=(2, 3)
        )
        assert _same_placement(explicit, GDMDistribution(FS, (2, 3)))
        preset = make_method(
            "gdm", fields=FIELDS, devices=DEVICES, preset="GDM1"
        )
        assert _same_placement(preset, GDMDistribution.preset(FS, "GDM1"))

    def test_gdm_preset_and_multipliers_conflict(self):
        with pytest.raises(ConfigurationError):
            make_method("gdm", fields=FIELDS, devices=DEVICES,
                        preset="GDM1", multipliers=(2, 3))

    def test_replicated_over_named_base(self):
        scheme = make_method(
            "replicated", fields=FIELDS, devices=DEVICES,
            base="modulo", offset=3,
        )
        assert isinstance(scheme, ChainedReplicaScheme)
        assert scheme.offset == 3
        assert scheme.base.name == "modulo"

    def test_replicated_over_method_instance(self):
        fx = FXDistribution(FS)
        scheme = make_method(
            "replicated", fields=FIELDS, devices=DEVICES, base=fx
        )
        assert scheme.base is fx

    def test_replicated_rejects_foreign_base(self):
        other = FXDistribution(FileSystem.of(4, 4, m=4))
        with pytest.raises(ConfigurationError):
            make_method("replicated", fields=FIELDS, devices=DEVICES,
                        base=other)

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(ConfigurationError, match="modulo"):
            make_method("nope", fields=FIELDS, devices=DEVICES)

    def test_unknown_option_raises_repro_error(self):
        with pytest.raises(ConfigurationError):
            make_method("modulo", fields=FIELDS, devices=DEVICES,
                        frobnicate=True)

    def test_everything_it_raises_is_a_repro_error(self):
        for call in (
            lambda: make_method("nope", fields=FIELDS, devices=DEVICES),
            lambda: make_method("fx", fields=(3, 8), devices=DEVICES),
            lambda: make_method("fx", fields=FIELDS, devices=7),
            lambda: make_method("gdm", fields=FIELDS, devices=DEVICES,
                                preset="GDM9"),
        ):
            with pytest.raises(ReproError):
                call()

    def test_exported_from_package_root(self):
        assert repro.make_method is make_method
        assert repro.method_names is method_names


class TestConstructorShimsRemoved:
    def test_import_is_silent_and_names_are_gone(self):
        """``import repro`` raises no warning, and the baseline
        constructor classes resolve only from their defining modules."""
        code = (
            "import warnings; warnings.simplefilter('error');"
            "import repro;"
            "import repro.api"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
        )
        assert completed.returncode == 0, completed.stderr
        for package in (repro, distribution):
            with pytest.raises(AttributeError):
                package.ModuloDistribution
