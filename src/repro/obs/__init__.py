"""Unified telemetry: spans, metrics and structured run export.

One process-wide :class:`Telemetry` instance ties the subsystem together:

* :func:`trace_span` — the span/tracer API the hot paths use
  (:mod:`repro.obs.spans`),
* ``telemetry().metrics`` — counters, gauges, latency histograms and the
  hit/miss/throughput perf counters of every cache and fast path
  (:mod:`repro.obs.metrics`),
* ``telemetry().events`` — the structured :class:`EventLog` every finished
  span lands in, kept compact under a byte budget and rendered to
  canonical JSONL when read (:mod:`repro.obs.events`), and
* :class:`ObservedOptimalityChecker` — replays a workload trace and
  verifies the paper's ``max_j |R(q) on device j| <= ceil(|R(q)|/M)``
  bound from telemetry alone (:mod:`repro.obs.checker`).

Determinism: :func:`configure` accepts an injectable clock, so tests and
golden files run under :class:`ManualClock` and ``obs export`` output is
byte-identical across runs.  ``python -m repro obs {report,export,tail,
check}`` is the CLI surface.
"""

from __future__ import annotations

import threading

from repro.obs.checker import (
    ObservedCheckReport,
    ObservedOptimalityChecker,
    TraceAuditObservation,
    TraceAuditReport,
)
from repro.obs.clock import (
    Clock,
    ManualClock,
    MonotonicClock,
    process_clock,
    set_process_clock,
)
from repro.obs.events import (
    DEFAULT_BUDGET_BYTES,
    WELL_KNOWN_SPAN_EVENTS,
    EventLog,
    jsonl_line,
    validate_jsonl,
    validate_record,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BOUNDARIES_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    PerfCounter,
    default_registry,
    labeled_name,
    parse_labeled_name,
)
from repro.obs.profile import QueryMixProfile, TenantProfile
from repro.obs.slo import SloMonitor, SloPolicy, SloReport, TenantSlo
from repro.obs.spans import Span, TraceContext, Tracer

__all__ = [
    "Clock",
    "ManualClock",
    "MonotonicClock",
    "process_clock",
    "set_process_clock",
    "Counter",
    "Gauge",
    "Histogram",
    "PerfCounter",
    "MetricsRegistry",
    "default_registry",
    "labeled_name",
    "parse_labeled_name",
    "DEFAULT_LATENCY_BOUNDARIES_MS",
    "EventLog",
    "DEFAULT_BUDGET_BYTES",
    "WELL_KNOWN_SPAN_EVENTS",
    "jsonl_line",
    "validate_record",
    "validate_jsonl",
    "Span",
    "TraceContext",
    "Tracer",
    "Telemetry",
    "telemetry",
    "configure",
    "reset_telemetry",
    "trace_span",
    "current_span",
    "QueryMixProfile",
    "TenantProfile",
    "SloMonitor",
    "SloPolicy",
    "SloReport",
    "TenantSlo",
    "ObservedCheckReport",
    "ObservedOptimalityChecker",
    "TraceAuditObservation",
    "TraceAuditReport",
]


class Telemetry:
    """The clock, event log, metrics registry and tracer of one process."""

    def __init__(
        self,
        clock: Clock | None = None,
        budget_bytes: int = DEFAULT_BUDGET_BYTES,
        enabled: bool = True,
        metrics: MetricsRegistry | None = None,
    ):
        self.clock = clock or process_clock()
        self.events = EventLog(budget_bytes)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = Tracer(self.clock, self.events, self.metrics, enabled)

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self.tracer.enabled = bool(value)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear events and metrics, restart span ids and the time origin."""
        self.events.clear()
        self.metrics.reset()
        self.tracer.reset()

    def set_clock(self, clock: Clock) -> None:
        """Swap the clock (e.g. for a deterministic run) and re-anchor."""
        self.clock = clock
        self.tracer.clock = clock
        self.tracer.reset()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export_records(self) -> list[dict]:
        """Every retained event record, rendered, plus a trailing metrics
        snapshot record."""
        from repro.envelope import versioned

        records = self.events.records()
        snapshot = versioned({"type": "metrics"})
        snapshot.update(self.metrics.snapshot().to_dict())
        records.append(snapshot)
        return records

    def export_jsonl(self) -> str:
        """The whole run as canonical JSON Lines (spans then metrics)."""
        return "".join(jsonl_line(record) for record in self.export_records())


_GLOBAL_LOCK = threading.Lock()
#: The global instance observes into the shared default registry, the same
#: one the hot paths record their perf counters into — one unified store.
_TELEMETRY = Telemetry(metrics=default_registry())


def telemetry() -> Telemetry:
    """The process-wide telemetry instance."""
    return _TELEMETRY


def configure(
    enabled: bool | None = None,
    clock: Clock | None = None,
    reset: bool = False,
) -> Telemetry:
    """Adjust the global telemetry in place (references stay valid).

    The instance itself is never replaced: the hot paths recording perf
    counters through :func:`~repro.obs.metrics.default_registry` and any
    code holding ``telemetry().metrics`` keep observing the same registry.
    """
    with _GLOBAL_LOCK:
        if clock is not None:
            # Engine timing reads (repro.obs.clock.now) follow along, so a
            # deterministic clock makes the perf-counter seconds — and
            # therefore the export — deterministic too.
            set_process_clock(clock)
            _TELEMETRY.set_clock(clock)
        if enabled is not None:
            _TELEMETRY.enabled = enabled
        if reset:
            _TELEMETRY.reset()
    return _TELEMETRY


def reset_telemetry() -> None:
    """Clear the global event log and metrics (tests, repeated CLI runs)."""
    _TELEMETRY.reset()


def trace_span(name: str, **attrs):
    """Open a span on the global tracer (the hot-path entry point)."""
    return _TELEMETRY.tracer.span(name, **attrs)


def current_span():
    """The innermost live span of the calling context, if any."""
    return _TELEMETRY.tracer.current()
