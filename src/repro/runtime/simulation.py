"""Concurrent-workload simulation under a fault plan.

:class:`FaultAwareQuerySimulator` extends the discrete-event model of
:class:`~repro.storage.simulator.ParallelQuerySimulator` with the runtime's
failure semantics:

* fail-stop devices never receive tasks — their share of each query is
  re-routed *at dispatch* by
  :func:`~repro.analysis.availability.reroute_histogram` (the chained
  backup when a replica scheme is attached and that backup is up), and
  counted as lost otherwise,
* transient errors repeat a device's batch (seeded, order-independent
  draws) with capped exponential backoff between attempts,
* stragglers run at their plan latency factor, and a per-device timeout
  abandons a batch that has run too long (its buckets count as lost — the
  stream model does not cascade a second failover hop).

Everything stays deterministic for a given plan seed and arrival sequence,
so two runs of the same scenario produce byte-identical
:class:`~repro.storage.simulator.SimulationReport` objects.
"""

from __future__ import annotations

from repro.analysis.availability import reroute_histogram
from repro.distribution.base import DistributionMethod
from repro.distribution.replicated import ChainedReplicaScheme
from repro.errors import ConfigurationError
from repro.obs.metrics import default_registry
from repro.runtime.faults import FaultInjector, FaultPlan, retry_episode
from repro.runtime.retry import RetryPolicy
from repro.storage.costs import DeviceCostModel
from repro.storage.simulator import (  # noqa: F401 (QueryArrival: doctest)
    ParallelQuerySimulator,
    QueryArrival,
    SimulationReport,
)

__all__ = ["FaultAwareQuerySimulator"]


class FaultAwareQuerySimulator(ParallelQuerySimulator):
    """FIFO per-device simulation of a query stream under injected faults.

    The stream loop is :meth:`ParallelQuerySimulator.run`'s; this class
    supplies its fault routing, its per-device retry/timeout episode, its
    span and its counters.

    Pass a :class:`~repro.distribution.replicated.ChainedReplicaScheme`
    built over the *same* method to enable failover routing; without one,
    a failed device's share of every query is reported through the
    per-query ``completeness`` instead.

    >>> from repro import FileSystem, FXDistribution, PartialMatchQuery
    >>> fs = FileSystem.of(4, 4, m=4)
    >>> fx = FXDistribution(fs)
    >>> sim = FaultAwareQuerySimulator(fx, plan=FaultPlan.fail([3]))
    >>> q = PartialMatchQuery.full_scan(fs)
    >>> report = sim.run([QueryArrival(q, 0.0)])
    >>> report.queries[0].completeness
    0.75
    """

    span_name = "simulate.faulty_run"

    def __init__(
        self,
        method: DistributionMethod,
        plan: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        scheme: ChainedReplicaScheme | None = None,
        cost_model: DeviceCostModel | None = None,
    ):
        self.plan = plan or FaultPlan.none()
        self.retry = retry or RetryPolicy()
        self.injector = FaultInjector(self.plan, method.filesystem.m)
        if scheme is not None and scheme.base is not method:
            raise ConfigurationError(
                "the replica scheme must be built over the simulated method "
                "(its primary placement decides the routing)"
            )
        self.scheme = scheme
        self.failed_devices = tuple(sorted(self.plan.failed_devices))
        speed_factors = [
            1.0 / self.injector.latency_factor(d)
            for d in range(method.filesystem.m)
        ]
        super().__init__(method, cost_model=cost_model, speed_factors=speed_factors)

    # ------------------------------------------------------------------
    # Fault mechanics
    # ------------------------------------------------------------------
    def _route_tasks(
        self, histogram: list[int], report: SimulationReport
    ) -> tuple[list[int], int]:
        """Move fail-stopped devices' loads to backups; count what's lost."""
        failed = self.plan.failed_devices
        offset = None if self.scheme is None else self.scheme.offset
        tasks, lost = reroute_histogram(histogram, failed, offset)
        report.failovers += sum(histogram[d] for d in failed) - lost
        return tasks, lost

    def _device_episode(
        self,
        device: int,
        bucket_count: int,
        query_index: int,
        report: SimulationReport,
    ) -> tuple[float, bool]:
        """(busy time, batch served?) for one device's share of one query."""
        service, __ = super()._device_episode(
            device, bucket_count, query_index, report
        )
        __, __, busy, served = retry_episode(
            self.injector, self.retry, device, query_index, service, report
        )
        return busy, served

    def _span_attrs(self, report: SimulationReport) -> dict:
        return {
            "plan": self.plan.describe(),
            "makespan_ms": round(report.makespan_ms, 6),
            "failovers": report.failovers,
            "lost_buckets": report.lost_buckets,
            "mean_completeness": round(report.mean_completeness, 6),
        }

    def _record_counters(self, report: SimulationReport) -> None:
        from repro.obs import telemetry

        super()._record_counters(report)
        metrics = telemetry().metrics
        for simulated in report.queries:
            metrics.observe("runtime.completeness", simulated.completeness)
        record = default_registry().record_perf_work
        record("runtime.sim.queries", len(report.queries))
        if report.retries:
            record("runtime.retries", report.retries)
        if report.timeouts:
            record("runtime.timeouts", report.timeouts)
        if report.failovers:
            record("runtime.failovers", report.failovers)
        degraded = sum(1 for q in report.queries if q.completeness < 1.0)
        if degraded:
            record("runtime.degraded_queries", degraded)
