"""Concurrent query-serving front end.

The paper's declustering only pays off when many requests actually hit
the ``M`` devices at once; this package is the tier that takes that
traffic.  It fronts a :class:`~repro.storage.parallel_file.PartitionedFile`
with:

* :class:`QueryService` (:mod:`repro.service.frontend`) — thread-safe
  execution with in-flight request coalescing over the query algebra and
  the write-aware result cache.  ``execute`` / ``execute_many`` /
  ``insert`` run in the caller's thread — the network gateway
  (:mod:`repro.gateway`) calls them on each connection thread — and
  ``submit`` / ``submit_many`` / ``submit_insert`` return the same work as
  already-completed :class:`concurrent.futures.Future` objects,
* :class:`AdmissionController` (:mod:`repro.service.admission`) — bounded
  concurrency and queueing with explicit shed/timeout outcomes, and
* :class:`LoadGenerator` (:mod:`repro.service.loadgen`) — a deterministic
  closed-loop driver whose :class:`LoadReport` measures throughput and
  latency percentiles and *proves* zero stale reads by serial replay.

``python -m repro serve`` drives the whole tier from the command line
(``python -m repro gateway`` adds the multi-tenant socket front end);
every interaction lands in the ``service.*`` counters and histograms of
the process telemetry registry.
"""

from repro.service.admission import AdmissionController, AdmissionDecision
from repro.service.frontend import QueryService, ServiceConfig, ServiceResult
from repro.service.loadgen import (
    LoadGenerator,
    LoadReport,
    LoadSpec,
    RequestRecord,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "QueryService",
    "ServiceConfig",
    "ServiceResult",
    "LoadGenerator",
    "LoadReport",
    "LoadSpec",
    "RequestRecord",
]
