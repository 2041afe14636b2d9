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

Baseline methods are built through :func:`repro.api.make_method`; their
constructor classes (``ModuloDistribution``, ``GDMDistribution``, ...)
live in the :mod:`repro.distribution` modules that define them.
"""

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

__version__ = "13.0.0"

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
    "GDM_PRESETS",
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
