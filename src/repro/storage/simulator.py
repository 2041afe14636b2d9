"""Discrete-event simulation of a concurrent partial-match workload.

The paper's response-time analysis is one-query-at-a-time: the largest
response size decides everything.  Real arrays serve a *stream* of queries,
where a skewed distribution hurts twice — the slow query itself, and the
queueing it inflicts on every later query that needs the hot device.  This
simulator quantifies that second-order effect.

Model: each query fans out into one task per device (the device's share of
qualified buckets, from inverse mapping).  Devices are work-conserving FIFO
servers processing one task at a time; a query completes when its last task
does.  Deterministic given the arrival sequence, so results are exactly
reproducible.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.distribution.base import DistributionMethod
from repro.errors import ConfigurationError
from repro.query.partial_match import PartialMatchQuery
from repro.query.workload import QueryWorkload, WorkloadSpec
from repro.storage.costs import DeviceCostModel, UnitCostModel

__all__ = [
    "QueryArrival",
    "SimulatedQuery",
    "SimulationReport",
    "ParallelQuerySimulator",
    "poisson_arrivals",
]


@dataclass(frozen=True)
class QueryArrival:
    """One workload element: a query and its arrival time (ms).

    *query* is a :class:`~repro.query.partial_match.PartialMatchQuery` or,
    for range workloads on separable methods, a
    :class:`~repro.query.box.BoxQuery`.
    """

    query: object
    arrival_ms: float


@dataclass(frozen=True)
class SimulatedQuery:
    """Per-query outcome of a simulation run."""

    arrival_ms: float
    completion_ms: float
    service_ms: float      # response time on an idle array (max task)
    largest_response: int
    #: Fraction of the query's qualified buckets actually served; 1.0
    #: outside the fault runtime (see repro.runtime.simulation).
    completeness: float = 1.0

    @property
    def latency_ms(self) -> float:
        return self.completion_ms - self.arrival_ms

    @property
    def queueing_ms(self) -> float:
        """Time lost to contention beyond the idle-array service time."""
        return self.latency_ms - self.service_ms


@dataclass
class SimulationReport:
    """Aggregate outcome of one simulation run."""

    queries: list[SimulatedQuery] = field(default_factory=list)
    device_busy_ms: list[float] = field(default_factory=list)
    makespan_ms: float = 0.0
    # Fault-runtime tallies; all zero outside repro.runtime.simulation.
    failed_devices: tuple[int, ...] = ()
    retries: int = 0
    timeouts: int = 0
    failovers: int = 0
    lost_buckets: int = 0

    @property
    def mean_latency_ms(self) -> float:
        if not self.queries:
            return 0.0
        return sum(q.latency_ms for q in self.queries) / len(self.queries)

    @property
    def max_latency_ms(self) -> float:
        return max((q.latency_ms for q in self.queries), default=0.0)

    @property
    def mean_queueing_ms(self) -> float:
        if not self.queries:
            return 0.0
        return sum(q.queueing_ms for q in self.queries) / len(self.queries)

    @property
    def throughput_qps(self) -> float:
        """Completed queries per second of makespan."""
        if self.makespan_ms == 0.0:
            return 0.0
        return 1000.0 * len(self.queries) / self.makespan_ms

    def latency_percentile(self, q: float) -> float:
        """Latency at quantile ``q`` in [0, 1] (nearest-rank)."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile {q} outside [0, 1]")
        if not self.queries:
            return 0.0
        ordered = sorted(query.latency_ms for query in self.queries)
        rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[rank]

    def utilisation(self) -> list[float]:
        """Busy fraction per device over the makespan."""
        if self.makespan_ms == 0.0:
            return [0.0] * len(self.device_busy_ms)
        return [busy / self.makespan_ms for busy in self.device_busy_ms]

    @property
    def mean_completeness(self) -> float:
        """Average served fraction over the stream (1.0 = nothing lost)."""
        if not self.queries:
            return 1.0
        return sum(q.completeness for q in self.queries) / len(self.queries)

    def to_dict(self) -> dict:
        """JSON-ready summary shared by the CLI tables and ``--json``."""
        return {
            "queries": len(self.queries),
            "mean_latency_ms": round(self.mean_latency_ms, 6),
            "max_latency_ms": round(self.max_latency_ms, 6),
            "p95_latency_ms": round(self.latency_percentile(0.95), 6),
            "mean_queueing_ms": round(self.mean_queueing_ms, 6),
            "throughput_qps": round(self.throughput_qps, 6),
            "makespan_ms": round(self.makespan_ms, 6),
            "utilisation": [round(u, 6) for u in self.utilisation()],
            "mean_completeness": round(self.mean_completeness, 6),
            "failed_devices": sorted(self.failed_devices),
            "retries": self.retries,
            "timeouts": self.timeouts,
            "failovers": self.failovers,
            "lost_buckets": self.lost_buckets,
        }


class ParallelQuerySimulator:
    """FIFO per-device simulation of a query stream under one method.

    >>> from repro import FileSystem, FXDistribution, PartialMatchQuery
    >>> fs = FileSystem.of(4, 4, m=4)
    >>> sim = ParallelQuerySimulator(FXDistribution(fs))
    >>> q = PartialMatchQuery.full_scan(fs)
    >>> report = sim.run([QueryArrival(q, 0.0), QueryArrival(q, 0.0)])
    >>> len(report.queries)
    2
    """

    #: Name of the span around one :meth:`run`.
    span_name = "simulate.run"
    #: Fail-stopped devices, reported on every run's report.
    failed_devices: tuple[int, ...] = ()

    def __init__(
        self,
        method: DistributionMethod,
        cost_model: DeviceCostModel | None = None,
        speed_factors: list[float] | None = None,
    ):
        self.method = method
        self.cost_model = cost_model or UnitCostModel()
        m = method.filesystem.m
        if speed_factors is None:
            speed_factors = [1.0] * m
        if len(speed_factors) != m or any(f <= 0 for f in speed_factors):
            raise ConfigurationError(
                f"need {m} positive speed factors, got {speed_factors!r}"
            )
        #: Relative device speeds; the paper assumes a symmetric array
        #: (all 1.0).  A factor of 0.5 models a half-speed straggler.
        self.speed_factors = list(speed_factors)

    def run(self, arrivals: Iterable[QueryArrival]) -> SimulationReport:
        """Process *arrivals* (sorted by time internally) to completion."""
        from repro.obs import trace_span

        ordered = sorted(arrivals, key=lambda a: a.arrival_ms)
        m = self.method.filesystem.m
        device_free_at = [0.0] * m
        device_busy = [0.0] * m
        report = SimulationReport(failed_devices=self.failed_devices)

        with trace_span(
            self.span_name,
            method=self.method.name or type(self.method).__name__,
            queries=len(ordered),
        ) as span:
            for query_index, arrival in enumerate(ordered):
                if arrival.arrival_ms < 0:
                    raise ConfigurationError(
                        "arrival times must be non-negative"
                    )
                histogram = self._histogram_of(arrival.query)
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
                qualified = sum(histogram)
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
            for name, value in self._span_attrs(report).items():
                span.set_attr(name, value)
        self._record_counters(report)
        return report

    # ------------------------------------------------------------------
    # The steps a fault-aware subclass replaces
    # ------------------------------------------------------------------
    def _route_tasks(
        self, histogram: list[int], report: SimulationReport
    ) -> tuple[list[int], int]:
        """(per-device task sizes, buckets lost before dispatch)."""
        return histogram, 0

    def _device_episode(
        self,
        device: int,
        bucket_count: int,
        query_index: int,
        report: SimulationReport,
    ) -> tuple[float, bool]:
        """(busy time, batch served?) for one device's share of one query."""
        return (
            self.cost_model.service_time(bucket_count)
            / self.speed_factors[device],
            True,
        )

    def _span_attrs(self, report: SimulationReport) -> dict:
        """Attributes the run span closes with."""
        return {
            "makespan_ms": round(report.makespan_ms, 6),
            "mean_latency_ms": round(report.mean_latency_ms, 6),
        }

    def _record_counters(self, report: SimulationReport) -> None:
        from repro.obs import telemetry

        metrics = telemetry().metrics
        for simulated in report.queries:
            metrics.observe("simulate.latency_ms", simulated.latency_ms)

    def _histogram_of(self, query) -> list[int]:
        """Per-device load of one workload element (partial match or box)."""
        from repro.query.box import BoxQuery

        if isinstance(query, BoxQuery):
            from repro.analysis.box import box_response_histogram
            from repro.distribution.base import SeparableMethod

            if not isinstance(self.method, SeparableMethod):
                raise ConfigurationError(
                    "box arrivals need a separable method"
                )
            return box_response_histogram(self.method, query)
        self.method._check_query(query)
        return self.method.response_histogram(query)


def poisson_arrivals(
    workload: QueryWorkload | Sequence[PartialMatchQuery],
    count: int,
    rate_qps: float,
    seed: int = 0,
) -> list[QueryArrival]:
    """Draw *count* arrivals with exponential inter-arrival times.

    *workload* is either a :class:`~repro.query.workload.QueryWorkload`
    (queries drawn fresh) or a fixed sequence cycled through.

    >>> from repro import FileSystem
    >>> fs = FileSystem.of(4, 4, m=4)
    >>> wl = QueryWorkload(fs, WorkloadSpec(seed=1))
    >>> arrivals = poisson_arrivals(wl, 10, rate_qps=100.0, seed=2)
    >>> len(arrivals)
    10
    """
    if count < 0:
        raise ConfigurationError("count must be non-negative")
    if rate_qps <= 0:
        raise ConfigurationError("rate must be positive")
    rng = random.Random(seed)
    now = 0.0
    arrivals = []
    for i in range(count):
        now += rng.expovariate(rate_qps) * 1000.0
        if isinstance(workload, QueryWorkload):
            query = workload.next_query()
        else:
            query = workload[i % len(workload)]
        arrivals.append(QueryArrival(query=query, arrival_ms=now))
    return arrivals
