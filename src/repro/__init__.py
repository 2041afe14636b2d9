"""repro — FX declustering for partial match retrieval.

A production-quality reproduction of *"Optimal File Distribution For Partial
Match Retrieval"* (Kim & Pramanik, SIGMOD 1988): the FX (fieldwise
exclusive-or) bucket-to-device distribution method, its field transformation
algebra and optimality theory, the Modulo/GDM baselines it is compared
against, a simulated parallel storage substrate, and an exact analysis engine
that regenerates every table and figure of the paper's evaluation.

Quickstart::

    from repro import FileSystem, FXDistribution, PartialMatchQuery

    fs = FileSystem.of(2, 8, m=4)           # two fields, four devices
    fx = FXDistribution(fs)                 # the paper's FX method
    fx.device_of((1, 6))                    # -> device of one bucket
    q = PartialMatchQuery.from_dict(fs, {0: 1})   # field 1 pinned, field 2 free
    fx.response_histogram(q)                # -> [2, 2, 2, 2]: strict optimal

See ``examples/`` for full scenarios and ``benchmarks/`` for the paper's
tables and figures.

Importing the baseline constructor classes (``ModuloDistribution``,
``GDMDistribution``, ...) from this top-level package is **deprecated**:
build methods through :func:`repro.api.make_method` instead.  The old
names still resolve (with a one-time :class:`DeprecationWarning` per
name) so existing callers keep working until the next major release.
"""

import importlib
import threading
import warnings

from repro.core.fx import BasicFXDistribution, FXDistribution
from repro.core.optimality import (
    OptimalityReport,
    is_k_optimal,
    is_perfect_optimal,
    is_strict_optimal,
    optimality_report,
)
from repro.core.theorems import (
    fx_perfect_optimal_sufficient,
    fx_strict_optimal_sufficient,
    modulo_strict_optimal_sufficient,
)
from repro.core.transforms import (
    IU1Transform,
    IU2Transform,
    IdentityTransform,
    UTransform,
    assign_transforms,
    make_transform,
)
from repro.api import (
    make_durable_file,
    make_gateway,
    make_method,
    make_service,
    method_names,
)
from repro.distribution.base import (
    DistributionMethod,
    available_methods,
    create_method,
)
from repro.distribution.gdm import GDM_PRESETS
from repro.errors import ReproError
from repro.runtime import (
    DegradedExecutor,
    FaultAwareQuerySimulator,
    FaultPlan,
    RetryPolicy,
)
from repro.engine import BatchEngine, BatchExecutionReport
from repro.hashing import FieldSpec, FileSystem, MultiKeyHash, design_directory
from repro.query import PartialMatchQuery, QueryWorkload, WorkloadSpec
from repro.service import (
    LoadGenerator,
    LoadSpec,
    QueryService,
    ServiceConfig,
)
from repro.storage import (
    DynamicPartitionedFile,
    ParallelQuerySimulator,
    PartitionedFile,
    QueryExecutor,
    ReplicatedFile,
)

__version__ = "4.0.0"

__all__ = [
    "__version__",
    # core
    "FXDistribution",
    "BasicFXDistribution",
    "IdentityTransform",
    "UTransform",
    "IU1Transform",
    "IU2Transform",
    "make_transform",
    "assign_transforms",
    "fx_strict_optimal_sufficient",
    "fx_perfect_optimal_sufficient",
    "modulo_strict_optimal_sufficient",
    "is_strict_optimal",
    "is_k_optimal",
    "is_perfect_optimal",
    "optimality_report",
    "OptimalityReport",
    # baselines
    "DistributionMethod",
    "ModuloDistribution",
    "GDMDistribution",
    "GDM_PRESETS",
    "RandomDistribution",
    "SpanningPathDistribution",
    "ZOrderDistribution",
    "ChainedReplicaScheme",
    "create_method",
    "available_methods",
    # facade
    "make_method",
    "make_durable_file",
    "make_service",
    "make_gateway",
    "method_names",
    # runtime
    "FaultPlan",
    "RetryPolicy",
    "DegradedExecutor",
    "FaultAwareQuerySimulator",
    # substrate
    "FieldSpec",
    "FileSystem",
    "MultiKeyHash",
    "design_directory",
    "PartitionedFile",
    "DynamicPartitionedFile",
    "ReplicatedFile",
    "QueryExecutor",
    "BatchEngine",
    "BatchExecutionReport",
    "ParallelQuerySimulator",
    "PartialMatchQuery",
    "QueryWorkload",
    "WorkloadSpec",
    # serving tier
    "QueryService",
    "ServiceConfig",
    "LoadGenerator",
    "LoadSpec",
    "ReproError",
]

#: Baseline constructor classes reachable at top level only through the
#: deprecation shim below — same pattern as :mod:`repro.distribution`.
_DEPRECATED_CONSTRUCTORS = {
    "ModuloDistribution": "repro.distribution.modulo",
    "GDMDistribution": "repro.distribution.gdm",
    "RandomDistribution": "repro.distribution.random_alloc",
    "ChainedReplicaScheme": "repro.distribution.replicated",
    "SpanningPathDistribution": "repro.distribution.spanning",
    "ZOrderDistribution": "repro.distribution.zorder",
}
_warned: set[str] = set()
#: Concurrent first accesses to one deprecated name must produce exactly
#: one warning; an unguarded check-then-add races under free threading.
_warned_lock = threading.Lock()


def __getattr__(name: str):
    module_name = _DEPRECATED_CONSTRUCTORS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    with _warned_lock:
        first_use = name not in _warned
        if first_use:
            _warned.add(name)
    if first_use:
        warnings.warn(
            f"importing {name} from repro is deprecated; use "
            f"repro.api.make_method(...) (or import from "
            f"{module_name} directly)",
            DeprecationWarning,
            stacklevel=2,
        )
    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_DEPRECATED_CONSTRUCTORS))
