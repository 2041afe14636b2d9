"""Span tracing: nested, timed units of work with structured attributes.

``trace_span`` (re-exported by :mod:`repro.obs`) is the one instrumentation
primitive the engine hot paths use::

    with trace_span("query.execute", qualified=64) as span:
        ...
        span.add_event("device", device=3, buckets=8)
        span.set_attr("largest_response", 8)

Spans nest through a :class:`contextvars.ContextVar`, so concurrent
threads (the gateway's connection threads) each see their own ancestry.
A finished span is appended to the telemetry
:class:`~repro.obs.events.EventLog` as it is — a slotted object holding the
tracer origin it closed under — and rendered to its structured record
(:meth:`Span.to_record`) only when the log is read.  Deferred attribute
values (a query's value tuple, a batch's count matrix) are rendered then
too.  Its duration is observed into the ``span.<name>.ms`` latency
histogram of the metrics registry.

Every span belongs to a **trace**: a 64-bit id shared by a whole request
tree, even when that tree crosses a process boundary.  A root span (no
local parent, no remote context) allocates a fresh trace id from a seeded
splitmix64 stream — deterministic under :class:`~repro.obs.clock.ManualClock`
runs because :meth:`Tracer.reset` restarts the stream.  A server resuming a
request that arrived over the wire activates the caller's
:class:`TraceContext` (:meth:`Tracer.activate`); the next span opened in
that context adopts the remote trace id, parents itself under the remote
span, and is marked ``remote`` in its exported record.

When tracing is disabled :meth:`Tracer.span` returns a shared no-op span,
which is its own context manager, and touches neither the log nor the
clock, keeping the disabled cost to one attribute check per span.
"""

from __future__ import annotations

import contextvars
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.envelope import SCHEMA_VERSION
from repro.obs.clock import Clock
from repro.obs.events import EventLog, _Deferred
from repro.obs.metrics import MetricsRegistry
from repro.util.numbers import mix64

__all__ = ["Span", "TraceContext", "Tracer", "NULL_SPAN"]

#: Salt separating the trace-id splitmix64 stream from other seeded streams.
_TRACE_SALT = 0xA24BAED4963EE407


@dataclass(frozen=True)
class TraceContext:
    """Portable identity of a trace position: ``(trace_id, span_id)``.

    This is what crosses process boundaries: the client stamps it into the
    wire frame, the server activates it so the resumed span parents under
    the caller.  *span_id* is ``None`` when the caller allocated a trace id
    without opening a span of its own (the thin-client case) — the resumed
    span then becomes the root of the remote trace.  *tenant* is carried as
    a convenience for attribution; it never affects span identity.
    """

    trace_id: int
    span_id: int | None = None
    tenant: str | None = None


@dataclass(slots=True)
class Span:
    """One timed unit of work, possibly nested under a parent span."""

    name: str
    span_id: int
    parent_id: int | None
    start: float
    attrs: dict = field(default_factory=dict)
    events: list[dict] = field(default_factory=list)
    end: float | None = None
    #: 64-bit id of the trace this span belongs to.
    trace_id: int = 0
    #: True when the parent context was adopted via ``Tracer.activate``
    #: rather than lexical nesting — i.e. the link crossed a wire frame.
    remote: bool = False
    #: The tracer's time origin, captured when the span closed: what the
    #: record's times are relative to.
    origin: float = 0.0

    def set_attr(self, key: str, value) -> None:
        self.attrs[key] = value

    def add_event(self, name: str, **attrs) -> None:
        """Attach a point-in-time event (retry, failover, ...) to the span."""
        self.events.append({"name": name, "attrs": attrs})

    def to_context(self) -> TraceContext:
        """This span's position as a portable :class:`TraceContext`."""
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    @property
    def duration_ms(self) -> float:
        if self.end is None:
            return 0.0
        return (self.end - self.start) * 1000.0

    def to_record(self, origin: float | None = None) -> dict:
        """The span as a JSONL-schema record, times relative to *origin*
        (by default the tracer origin the span closed under)."""
        if origin is None:
            origin = self.origin
        start_ms = (self.start - origin) * 1000.0
        end_ms = round(start_ms + self.duration_ms, 6)
        # Events carry no clock reads of their own (keeping instrumentation
        # cheap and deterministic-clock exports stable): they are stamped
        # with the span's end.
        at_ms = (
            end_ms
            if self.end is None
            else round((self.end - origin) * 1000.0, 6)
        )
        record = {
            "v": SCHEMA_VERSION,
            "type": "span",
            "id": self.span_id,
            "trace": self.trace_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_ms": round(start_ms, 6),
            "end_ms": end_ms,
            "duration_ms": round(self.duration_ms, 6),
            "attrs": {
                key: value.render() if isinstance(value, _Deferred) else value
                for key, value in self.attrs.items()
            },
            "events": [
                {
                    "name": event["name"],
                    "at_ms": event.get("at_ms", at_ms),
                    "attrs": event["attrs"],
                }
                for event in self.events
            ],
        }
        if self.remote:
            record["remote"] = True
        return record


class _NullSpan:
    """Shared no-op span, and its own context manager, while tracing is
    disabled."""

    __slots__ = ()

    def set_attr(self, key: str, value) -> None:
        pass

    def add_event(self, name: str, **attrs) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Creates spans, tracks nesting, and publishes finished spans.

    *origin* (the clock reading at construction/reset) anchors every
    exported timestamp, so a deterministic clock yields identical records
    run over run regardless of process start time.

    *trace_seed* seeds the 64-bit trace-id stream; :meth:`reset` restarts
    it, so a seeded deterministic run exports byte-identical trace ids.
    """

    def __init__(
        self,
        clock: Clock,
        event_log: EventLog,
        metrics: MetricsRegistry,
        enabled: bool = True,
        trace_seed: int = 0,
    ):
        self.clock = clock
        self.event_log = event_log
        self.metrics = metrics
        self.enabled = enabled
        self.trace_seed = trace_seed
        self._lock = threading.Lock()
        self._next_id = 1
        self._next_trace = 1
        self._current: contextvars.ContextVar[Span | None] = (
            contextvars.ContextVar("repro_obs_span", default=None)
        )
        self._remote: contextvars.ContextVar[TraceContext | None] = (
            contextvars.ContextVar("repro_obs_remote", default=None)
        )
        self.origin = clock.now()

    def reset(self) -> None:
        """Restart span/trace ids and the time origin (fresh run)."""
        with self._lock:
            self._next_id = 1
            self._next_trace = 1
        self.origin = self.clock.now()

    def current(self) -> Span | None:
        """The innermost live span of this thread/context, if any."""
        return self._current.get()

    def allocate_trace_id(self) -> int:
        """A fresh 64-bit trace id from the seeded splitmix64 stream."""
        with self._lock:
            nth = self._next_trace
            self._next_trace += 1
        return mix64(self.trace_seed ^ (nth * _TRACE_SALT))

    def current_context(self) -> TraceContext | None:
        """The trace position new work started *here* should inherit.

        The innermost live span wins; with no live span, an activated
        remote context (if any) is returned, so a call made under a
        resumed wire context before any span opens propagates it onward.
        """
        span = self._current.get()
        if span is not None:
            return span.to_context()
        return self._remote.get()

    @contextmanager
    def activate(self, context: TraceContext | None):
        """Resume *context* (a remote caller's trace position) here.

        The next span opened under this context manager — with no local
        parent span — adopts the remote trace id, parents itself under the
        remote span id, and is marked ``remote`` in its record.  ``None``
        deactivates (useful for symmetric call sites).
        """
        token = self._remote.set(context)
        try:
            yield context
        finally:
            self._remote.reset(token)

    def span(self, name: str, **attrs):
        """A context manager timing one span named *name*; entering it
        yields the :class:`Span` (:data:`NULL_SPAN` while disabled)."""
        if not self.enabled:
            return NULL_SPAN
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = self._current.get()
        if parent is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
            remote = False
        else:
            context = self._remote.get()
            if context is not None:
                trace_id = context.trace_id
                parent_id = context.span_id
                remote = True
            else:
                trace_id = self.allocate_trace_id()
                parent_id = None
                remote = False
        span = Span(
            name=name,
            span_id=span_id,
            parent_id=parent_id,
            start=self.clock.now(),
            attrs=attrs,
            trace_id=trace_id,
            remote=remote,
        )
        return _SpanScope(self, span)


class _SpanScope:
    """What :meth:`Tracer.span` returns: the span is current inside it and
    published when it exits, on success or error alike."""

    __slots__ = ("tracer", "span", "token")

    def __init__(self, tracer: Tracer, span: Span):
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self.token = self.tracer._current.set(self.span)
        return self.span

    def __exit__(self, *exc_info) -> None:
        tracer, span = self.tracer, self.span
        tracer._current.reset(self.token)
        span.end = tracer.clock.now()
        span.origin = tracer.origin
        evicted = tracer.event_log.append(span)
        if evicted:
            tracer.metrics.add("obs.events_evicted", evicted)
        tracer.metrics.observe(f"span.{span.name}.ms", span.duration_ms)
