"""Bucket-to-device distribution methods.

The FX method itself (the paper's contribution) lives in
:mod:`repro.core.fx`; this package holds the abstract interface, the
baselines the paper compares against (Modulo and GDM from Du & Sobolewski
1982, plus a random allocator and a FaRC86-style spanning-path declusterer)
and the section-6 extension: searching transform assignments.

Build methods through :func:`repro.api.make_method`, which covers every
registered name behind one signature; the concrete constructor classes
are imported from the modules that define them (e.g.
:mod:`repro.distribution.modulo`).
"""

from repro.distribution.base import (
    DistributionMethod,
    SeparableMethod,
    available_methods,
    create_method,
    register_method,
)
from repro.distribution.gdm import GDM_PRESETS

# Imported for their registration side-effects.
from repro.distribution import gdm as _gdm                    # noqa: F401
from repro.distribution import modulo as _modulo              # noqa: F401
from repro.distribution import random_alloc as _random_alloc  # noqa: F401
from repro.distribution import replicated as _replicated      # noqa: F401
from repro.distribution import spanning as _spanning          # noqa: F401
from repro.distribution import zorder as _zorder              # noqa: F401

__all__ = [
    "DistributionMethod",
    "SeparableMethod",
    "register_method",
    "create_method",
    "available_methods",
    "GDM_PRESETS",
]
