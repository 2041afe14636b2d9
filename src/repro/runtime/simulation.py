"""Concurrent-workload simulation under a fault plan.

:class:`FaultAwareQuerySimulator` extends the discrete-event model of
:class:`~repro.storage.simulator.ParallelQuerySimulator` with the runtime's
failure semantics:

* fail-stop devices never receive tasks — their share of each query is
  re-routed *at dispatch* to the chained backup device when a replica
  scheme is attached, and counted as lost otherwise,
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

from collections.abc import Iterable

from repro.distribution.base import DistributionMethod
from repro.distribution.replicated import ChainedReplicaScheme
from repro.errors import ConfigurationError
from repro.obs.metrics import default_registry
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.retry import RetryPolicy
from repro.storage.costs import DeviceCostModel
from repro.storage.simulator import (
    ParallelQuerySimulator,
    QueryArrival,
    SimulatedQuery,
    SimulationReport,
)

__all__ = ["FaultAwareQuerySimulator"]


class FaultAwareQuerySimulator(ParallelQuerySimulator):
    """FIFO per-device simulation of a query stream under injected faults.

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
        speed_factors = [
            1.0 / self.injector.latency_factor(d)
            for d in range(method.filesystem.m)
        ]
        super().__init__(method, cost_model=cost_model, speed_factors=speed_factors)

    def run(self, arrivals: Iterable[QueryArrival]) -> SimulationReport:
        """Process *arrivals* to completion under the fault plan."""
        from repro.obs import telemetry, trace_span

        ordered = sorted(arrivals, key=lambda a: a.arrival_ms)
        m = self.method.filesystem.m
        device_free_at = [0.0] * m
        device_busy = [0.0] * m
        report = SimulationReport(
            device_busy_ms=[0.0] * m,
            failed_devices=tuple(sorted(self.plan.failed_devices)),
        )

        with trace_span(
            "simulate.faulty_run",
            method=self.method.name or type(self.method).__name__,
            queries=len(ordered),
            plan=self.plan.describe(),
        ) as span:
            self._run_faulty_stream(
                ordered, device_free_at, device_busy, report
            )
            span.set_attr("makespan_ms", round(report.makespan_ms, 6))
            span.set_attr("failovers", report.failovers)
            span.set_attr("lost_buckets", report.lost_buckets)
            span.set_attr(
                "mean_completeness", round(report.mean_completeness, 6)
            )
        metrics = telemetry().metrics
        for simulated in report.queries:
            metrics.observe("simulate.latency_ms", simulated.latency_ms)
            metrics.observe("runtime.completeness", simulated.completeness)
        self._record_counters(report)
        return report

    def _run_faulty_stream(
        self, ordered, device_free_at, device_busy, report
    ) -> None:
        for query_index, arrival in enumerate(ordered):
            if arrival.arrival_ms < 0:
                raise ConfigurationError("arrival times must be non-negative")
            histogram = self._histogram_of(arrival.query)
            qualified = sum(histogram)
            tasks, lost = self._route_tasks(histogram, report)
            completion = arrival.arrival_ms
            idle_service = 0.0
            for device, bucket_count in enumerate(tasks):
                if bucket_count == 0:
                    continue
                busy, served = self._device_episode(
                    device, bucket_count, query_index, report
                )
                if not served:
                    lost += bucket_count
                idle_service = max(idle_service, busy)
                start = max(arrival.arrival_ms, device_free_at[device])
                finish = start + busy
                device_free_at[device] = finish
                device_busy[device] += busy
                completion = max(completion, finish)
            report.lost_buckets += lost
            report.queries.append(
                SimulatedQuery(
                    arrival_ms=arrival.arrival_ms,
                    completion_ms=completion,
                    service_ms=idle_service,
                    largest_response=max(tasks, default=0),
                    completeness=(
                        1.0 - lost / qualified if qualified else 1.0
                    ),
                )
            )
            report.makespan_ms = max(report.makespan_ms, completion)
        report.device_busy_ms = device_busy

    # ------------------------------------------------------------------
    # Fault mechanics
    # ------------------------------------------------------------------
    def _route_tasks(
        self, histogram: list[int], report: SimulationReport
    ) -> tuple[list[int], int]:
        """Move fail-stopped devices' loads to backups; count what's lost."""
        m = self.method.filesystem.m
        tasks = [0] * m
        lost = 0
        for device, count in enumerate(histogram):
            if count == 0:
                continue
            if not self.injector.is_failed(device):
                tasks[device] += count
                continue
            backup = self._backup_for(device)
            if backup is None:
                lost += count
            else:
                tasks[backup] += count
                report.failovers += count
        return tasks, lost

    def _device_episode(
        self,
        device: int,
        bucket_count: int,
        query_index: int,
        report: SimulationReport,
    ) -> tuple[float, bool]:
        """(busy time, batch served?) for one device's share of one query."""
        attempts, succeeded = self._attempts_for(device, query_index)
        report.retries += attempts - 1
        service = (
            self.cost_model.service_time(bucket_count)
            / self.speed_factors[device]
        )
        elapsed = attempts * service + self.retry.total_backoff_ms(attempts)
        if not succeeded or self.retry.exceeds_timeout(elapsed):
            report.timeouts += 1
            timeout = self.retry.timeout_ms
            busy = min(elapsed, timeout) if timeout is not None else elapsed
            return busy, False
        return elapsed, True

    def _attempts_for(self, device: int, query_index: int) -> tuple[int, bool]:
        for attempt in range(1, self.retry.max_attempts + 1):
            if not self.injector.attempt_fails(device, query_index, attempt):
                return attempt, True
        return self.retry.max_attempts, False

    def _backup_for(self, primary: int) -> int | None:
        if self.scheme is None:
            return None
        backup = (primary + self.scheme.offset) % self.method.filesystem.m
        if self.injector.is_failed(backup):
            return None
        return backup

    def _record_counters(self, report: SimulationReport) -> None:
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
