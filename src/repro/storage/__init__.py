"""Simulated parallel storage substrate.

The paper's two-stage model [PrKi88] separates *data distribution* (which
device gets which bucket — the paper's topic and :mod:`repro.core` /
:mod:`repro.distribution` here) from *data construction* (how a device
stores its buckets locally).  This package supplies a concrete, instrumented
realisation of both so the distribution methods can be exercised end to end:

* :mod:`costs` — device service-time models (parallel disks vs main-memory
  nodes, matching the two regimes of section 5.2),
* :mod:`bucket_store` — the per-device local structure (hash directory of
  buckets to records),
* :mod:`device` — one simulated device with access accounting,
* :mod:`parallel_file` — a multi-key hashed file partitioned over M devices,
* :mod:`executor` — partial match execution with inverse mapping and a
  response-time model (max over devices, as for symmetric interconnects).
"""

from repro.storage.btree import BTree
from repro.storage.btree_store import BTreeBucketStore
from repro.storage.bucket_store import BucketStore
from repro.storage.cache import CachedExecutor, CacheStats
from repro.storage.costs import (
    DeviceCostModel,
    DiskCostModel,
    MainMemoryCostModel,
    UnitCostModel,
)
from repro.storage.device import DeviceStats, SimulatedDevice
from repro.storage.dynamic_file import DoublingEvent, DynamicPartitionedFile
from repro.storage.executor import ExecutionResult, QueryExecutor
from repro.storage.migration import Migration, MigrationReport, moved_fraction
from repro.storage.paged_store import PagedBucketStore
from repro.storage.parallel_file import PartitionedFile
from repro.storage.replicated_file import ReplicatedFile
from repro.storage.stats import DeviceSnapshot, FileStats, collect_stats
from repro.storage.simulator import (
    ParallelQuerySimulator,
    QueryArrival,
    SimulationReport,
    poisson_arrivals,
)

__all__ = [
    "BucketStore",
    "DeviceCostModel",
    "DiskCostModel",
    "MainMemoryCostModel",
    "UnitCostModel",
    "SimulatedDevice",
    "DeviceStats",
    "PartitionedFile",
    "DynamicPartitionedFile",
    "DoublingEvent",
    "QueryExecutor",
    "ExecutionResult",
    "BTree",
    "BTreeBucketStore",
    "PagedBucketStore",
    "Migration",
    "MigrationReport",
    "moved_fraction",
    "CachedExecutor",
    "CacheStats",
    "ReplicatedFile",
    "ParallelQuerySimulator",
    "QueryArrival",
    "SimulationReport",
    "poisson_arrivals",
    "collect_stats",
    "FileStats",
    "DeviceSnapshot",
]
