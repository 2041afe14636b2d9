"""Tests for the distributed, tenant-aware observability plane.

Covers wire-level trace-context propagation (client stamping, server
resumption, same-thread service spans, coalesced-follower links), the seeded
64-bit trace-id streams, dimensional (labeled) metrics, the per-tenant
SLO monitor and its ``{"op": "obs"}`` wire surface, the query-mix
profiler, and the tenant-attributed trace audit — plus the
``Span.to_record`` event-timestamp regression.
"""

from __future__ import annotations

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.api import make_gateway
from repro.cli import main
from repro.envelope import versioned
from repro.errors import (
    AnalysisError,
    ConfigurationError,
    ProtocolError,
    ReproError,
)
from repro.gateway import (
    FrameDecoder,
    Gateway,
    GatewayClient,
    GatewayRequestError,
    encode_frame,
    protocol,
    run_loopback_load,
)
from repro.hashing.fields import FileSystem
from repro.obs import (
    ManualClock,
    ObservedOptimalityChecker,
    QueryMixProfile,
    SloMonitor,
    SloPolicy,
    SloReport,
    TraceContext,
    telemetry,
    trace_span,
)
from repro.obs.events import EventLog
from repro.obs.metrics import (
    MetricsRegistry,
    labeled_name,
    parse_labeled_name,
)
from repro.obs.profile import (
    pattern_of,
    pattern_of_query,
    resolve_tenant,
    span_index,
)
from repro.obs.spans import Span, Tracer
from repro.query.partial_match import PartialMatchQuery
from repro.service.loadgen import LoadSpec, op_log

FIELDS = (4, 4)
DEVICES = 4


@pytest.fixture(autouse=True)
def _fresh_telemetry():
    obs.reset_telemetry()
    yield
    obs.reset_telemetry()


@pytest.fixture
def gateway_factory():
    gateways: list[Gateway] = []

    def build(tenants=("alpha", "beta"), **kwargs):
        kwargs.setdefault("fields", FIELDS)
        kwargs.setdefault("devices", DEVICES)
        if not isinstance(tenants, dict):
            tenants = list(tenants)
        gateway = make_gateway(tenants, **kwargs)
        gateways.append(gateway)
        return gateway, gateway.start()

    yield build
    for gateway in gateways:
        gateway.close()


def _tracer(trace_seed: int = 0) -> Tracer:
    return Tracer(
        clock=ManualClock(step=0.001),
        event_log=EventLog(),
        metrics=MetricsRegistry(),
        trace_seed=trace_seed,
    )


def _span_records(records=None):
    records = telemetry().export_records() if records is None else records
    return [r for r in records if r.get("type") == "span"]


def _reachable_from_gateway(record, index) -> bool:
    current = record
    while current is not None:
        if current["name"] == "gateway.request":
            return True
        if current.get("parent") is None:
            return False
        current = index.get((current["trace"], current["parent"]))
    return False


# ======================================================================
# Span record timestamps (regression: events defaulted to span START)
# ======================================================================
class TestSpanEventTimestamps:
    def test_event_at_ms_defaults_to_span_end(self):
        tracer = _tracer()
        with tracer.span("work") as span:
            span.add_event("retry", attempt=1)
        record = tracer.event_log.records()[-1]
        assert record["duration_ms"] > 0
        event = record["events"][0]
        assert event["at_ms"] == record["end_ms"]
        assert event["at_ms"] > record["start_ms"]

    def test_explicit_at_ms_preserved(self):
        span = Span(name="w", span_id=1, parent_id=None, start=1.0, end=2.0)
        span.events.append({"name": "e", "at_ms": 123.5, "attrs": {}})
        record = span.to_record(origin=0.0)
        assert record["events"][0]["at_ms"] == 123.5

    def test_to_record_default_matches_end_without_tracer(self):
        # The raw dataclass path (no tracer stamping) must agree with the
        # tracer-stamped convention: span end, not span start.
        span = Span(name="w", span_id=1, parent_id=None, start=1.0, end=1.25)
        span.events.append({"name": "e", "attrs": {}})
        record = span.to_record(origin=0.0)
        assert record["events"][0]["at_ms"] == record["end_ms"]


# ======================================================================
# Trace context: ids, activation, propagation semantics
# ======================================================================
class TestTraceContext:
    def test_root_span_allocates_trace_id(self):
        tracer = _tracer()
        with tracer.span("root") as span:
            assert span.trace_id != 0
            assert span.remote is False
        record = tracer.event_log.records()[-1]
        assert record["trace"] == span.trace_id
        assert "remote" not in record

    def test_nested_span_inherits_trace(self):
        tracer = _tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
                assert inner.remote is False

    def test_current_context_prefers_live_span(self):
        tracer = _tracer()
        assert tracer.current_context() is None
        with tracer.span("outer") as span:
            context = tracer.current_context()
            assert context == TraceContext(span.trace_id, span.span_id)

    def test_activate_resumes_remote_trace(self):
        tracer = _tracer()
        remote = TraceContext(trace_id=0xDEAD, span_id=42)
        with tracer.activate(remote):
            assert tracer.current_context() == remote
            with tracer.span("resumed") as span:
                assert span.trace_id == 0xDEAD
                assert span.parent_id == 42
                assert span.remote is True
        assert tracer.current_context() is None
        record = tracer.event_log.records()[-1]
        assert record["remote"] is True
        assert record["trace"] == 0xDEAD

    def test_local_parent_wins_over_activated_context(self):
        tracer = _tracer()
        with tracer.activate(TraceContext(trace_id=5, span_id=1)):
            with tracer.span("outer") as outer:
                with tracer.span("inner") as inner:
                    assert inner.trace_id == outer.trace_id == 5
                    assert inner.parent_id == outer.span_id
                    assert inner.remote is False
                    assert outer.remote is True

    def test_activate_none_deactivates(self):
        tracer = _tracer()
        with tracer.activate(TraceContext(trace_id=5)):
            with tracer.activate(None):
                with tracer.span("fresh") as span:
                    assert span.trace_id != 5
                    assert span.remote is False

    def test_trace_ids_deterministic_under_reset(self):
        tracer = _tracer(trace_seed=7)
        first = [tracer.allocate_trace_id() for __ in range(4)]
        tracer.reset()
        second = [tracer.allocate_trace_id() for __ in range(4)]
        assert first == second
        assert len(set(first)) == 4
        assert all(0 <= t < 2**64 for t in first)

    def test_trace_ids_differ_by_seed(self):
        assert _tracer(1).allocate_trace_id() != _tracer(2).allocate_trace_id()

    def test_span_to_context_round_trip(self):
        tracer = _tracer()
        with tracer.span("w") as span:
            context = span.to_context()
        assert context.trace_id == span.trace_id
        assert context.span_id == span.span_id


# ======================================================================
# Labeled (dimensional) metrics
# ======================================================================
class TestLabeledMetrics:
    def test_labeled_name_sorts_keys(self):
        assert (
            labeled_name("gateway.ok", {"tenant": "a", "mode": "batched"})
            == "gateway.ok{mode=batched,tenant=a}"
        )
        assert labeled_name("gateway.ok", {}) == "gateway.ok"

    def test_parse_labeled_name_round_trip(self):
        series = labeled_name("x.y", {"tenant": "alpha", "mode": "serial"})
        base, labels = parse_labeled_name(series)
        assert base == "x.y"
        assert labels == {"tenant": "alpha", "mode": "serial"}
        assert parse_labeled_name("bare") == ("bare", {})

    def test_counter_records_base_and_labeled(self):
        registry = MetricsRegistry()
        registry.add("gateway.ok", labels={"tenant": "alpha"})
        registry.add("gateway.ok", labels={"tenant": "beta"})
        registry.add("gateway.ok")
        counters = registry.snapshot().counters
        assert counters["gateway.ok"] == 3
        assert counters["gateway.ok{tenant=alpha}"] == 1
        assert counters["gateway.ok{tenant=beta}"] == 1

    def test_histogram_records_base_and_labeled(self):
        registry = MetricsRegistry()
        registry.observe("lat", 5.0, labels={"tenant": "alpha"})
        registry.observe("lat", 7.0)
        histograms = registry.snapshot().histograms
        assert histograms["lat"].count == 2
        assert histograms["lat{tenant=alpha}"].count == 1

    def test_gauge_records_base_and_labeled(self):
        registry = MetricsRegistry()
        registry.set_gauge("depth", 3, labels={"tenant": "alpha"})
        gauges = registry.snapshot().gauges
        assert gauges["depth"] == 3
        assert gauges["depth{tenant=alpha}"] == 3


# ======================================================================
# Wire-level trace context (hypothesis round-trip over FrameDecoder)
# ======================================================================
class TestWireTraceContext:
    @settings(max_examples=60, deadline=None)
    @given(
        trace=st.integers(min_value=0, max_value=2**64 - 1),
        parent=st.one_of(
            st.none(), st.integers(min_value=0, max_value=2**63)
        ),
        chunk=st.integers(min_value=1, max_value=7),
    )
    def test_round_trip_through_torn_frames(self, trace, parent, chunk):
        payload = protocol.request(
            "query",
            request_id=1,
            tenant="alpha",
            **protocol.trace_fields(trace, parent),
        )
        stream = encode_frame(payload)
        decoder = FrameDecoder()
        decoded: list[dict] = []
        for start in range(0, len(stream), chunk):
            decoded.extend(decoder.feed(stream[start:start + chunk]))
        assert len(decoded) == 1
        assert protocol.parse_trace(decoded[0]) == (trace, parent)

    @settings(max_examples=30, deadline=None)
    @given(chunk=st.integers(min_value=1, max_value=7))
    def test_context_less_frames_stay_compatible(self, chunk):
        # The pre-trace wire shape must decode and parse as "no context".
        payload = protocol.request("ping", request_id=9, tenant=None)
        assert "trace" not in payload
        stream = encode_frame(payload)
        decoder = FrameDecoder()
        decoded: list[dict] = []
        for start in range(0, len(stream), chunk):
            decoded.extend(decoder.feed(stream[start:start + chunk]))
        assert protocol.parse_trace(decoded[0]) is None

    def test_trace_fields_omit_parent_without_trace(self):
        assert protocol.trace_fields(None, 5) == {}
        assert protocol.trace_fields(7) == {"trace": 7}

    @pytest.mark.parametrize(
        "payload",
        [
            {"trace": "bogus"},
            {"trace": True},
            {"trace": 1.5},
            {"trace": 7, "parent_span": "x"},
            {"trace": 7, "parent_span": False},
        ],
    )
    def test_malformed_trace_rejected(self, payload):
        with pytest.raises(ProtocolError):
            protocol.parse_trace(payload)

    def test_gateway_rejects_malformed_trace(self, gateway_factory):
        __, address = gateway_factory(["alpha"])
        with GatewayClient(*address, tenant="alpha") as client:
            with pytest.raises(GatewayRequestError) as excinfo:
                client.call(
                    versioned(
                        {"id": 1, "op": "ping", "trace": "not-an-int"}
                    )
                )
        assert excinfo.value.code == "bad_request"


# ======================================================================
# SLO monitor
# ======================================================================
class _FixedClock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def now(self) -> float:
        return self.t


class TestSloMonitor:
    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            SloPolicy(availability_target=1.0)
        with pytest.raises(ConfigurationError):
            SloPolicy(latency_target=0.0)
        with pytest.raises(ConfigurationError):
            SloPolicy(latency_threshold_ms=-1.0)
        with pytest.raises(ConfigurationError):
            SloPolicy(burn_windows_s=())

    def test_availability_and_budgets_from_labeled_counters(self):
        registry = MetricsRegistry()
        for __ in range(97):
            registry.add("gateway.ok", labels={"tenant": "alpha"})
        for __ in range(2):
            registry.add("gateway.shed", labels={"tenant": "alpha"})
        registry.add("gateway.timeout", labels={"tenant": "alpha"})
        monitor = SloMonitor(
            policy=SloPolicy(availability_target=0.95),
            registry=registry,
            clock=_FixedClock(),
        )
        report = monitor.report()
        slo = report.tenants["alpha"]
        assert slo.requests == 100
        assert slo.good == 97
        assert slo.bad == {"shed": 2, "timeout": 1}
        assert slo.availability == pytest.approx(0.97)
        # 3% bad against a 5% allowance: 40% of the budget remains.
        assert slo.availability_budget_remaining == pytest.approx(0.4)
        assert report.healthy

    def test_exhausted_budget_is_unhealthy(self):
        registry = MetricsRegistry()
        registry.add("gateway.ok", labels={"tenant": "alpha"})
        registry.add("gateway.shed", labels={"tenant": "alpha"})
        monitor = SloMonitor(registry=registry, clock=_FixedClock())
        report = monitor.report()
        assert report.tenants["alpha"].availability_budget_remaining < 0
        assert not report.healthy

    def test_latency_compliance_from_histogram_buckets(self):
        registry = MetricsRegistry()
        for __ in range(9):
            registry.add("gateway.ok", labels={"tenant": "alpha"})
            registry.observe(
                "gateway.latency_ms", 1.0, labels={"tenant": "alpha"}
            )
        registry.add("gateway.ok", labels={"tenant": "alpha"})
        registry.observe(
            "gateway.latency_ms", 5000.0, labels={"tenant": "alpha"}
        )
        monitor = SloMonitor(
            policy=SloPolicy(latency_threshold_ms=50.0, latency_target=0.8),
            registry=registry,
            clock=_FixedClock(),
        )
        slo = monitor.report().tenants["alpha"]
        assert slo.latency_count == 10
        assert slo.latency_within == 9
        assert slo.latency_compliance == pytest.approx(0.9)
        assert slo.latency_budget_remaining == pytest.approx(0.5)

    def test_burn_rates_windowed(self):
        registry = MetricsRegistry()
        clock = _FixedClock(0.0)
        monitor = SloMonitor(
            policy=SloPolicy(
                availability_target=0.9, burn_windows_s=(10.0, 1000.0)
            ),
            registry=registry,
            clock=clock,
        )
        for __ in range(10):
            registry.add("gateway.ok", labels={"tenant": "alpha"})
        monitor.sample()
        clock.t = 5.0
        # 5 more requests, 2 of them bad: windowed bad fraction 0.4
        # against a 0.1 allowance = burn rate 4.
        for __ in range(3):
            registry.add("gateway.ok", labels={"tenant": "alpha"})
        registry.add("gateway.shed", labels={"tenant": "alpha"})
        registry.add("gateway.timeout", labels={"tenant": "alpha"})
        report = monitor.report()
        burn = report.tenants["alpha"].burn_rates
        assert burn["10s"] == pytest.approx(4.0)
        assert burn["1000s"] == pytest.approx(4.0)

    def test_no_traffic_burn_rate_is_none(self):
        registry = MetricsRegistry()
        registry.add("gateway.ok", labels={"tenant": "alpha"})
        monitor = SloMonitor(registry=registry, clock=_FixedClock())
        monitor.sample()
        report = monitor.report()  # no delta since the sample
        assert all(
            rate is None
            for rate in report.tenants["alpha"].burn_rates.values()
        )

    def test_report_round_trips_through_dict(self):
        registry = MetricsRegistry()
        registry.add("gateway.ok", labels={"tenant": "alpha"})
        registry.add("gateway.shed", labels={"tenant": "beta"})
        monitor = SloMonitor(registry=registry, clock=_FixedClock())
        report = monitor.report()
        rebuilt = SloReport.from_dict(report.to_dict())
        assert rebuilt.to_dict() == report.to_dict()
        assert rebuilt.render() == report.render()

    def test_render_lists_tenants(self):
        registry = MetricsRegistry()
        registry.add("gateway.ok", labels={"tenant": "alpha"})
        monitor = SloMonitor(registry=registry, clock=_FixedClock())
        text = monitor.report().render()
        assert "alpha" in text
        assert "availability target" in text

    def test_unlabeled_counters_are_ignored(self):
        registry = MetricsRegistry()
        registry.add("gateway.ok")
        registry.add("other.ok", labels={"tenant": "alpha"})
        monitor = SloMonitor(registry=registry, clock=_FixedClock())
        assert monitor.report().tenants == {}


# ======================================================================
# Query-mix profiler
# ======================================================================
def _synthetic_records() -> list[dict]:
    """Span records shaped as a served gateway run exports them.

    Trace 10 is a single query whose cache miss opened a
    ``query.execute``; trace 12 is a two-query batch whose misses opened
    a ``query.batch``; trace 11 is an in-process ``query.execute`` with
    no service above it.
    """
    return [
        {
            "type": "span", "id": 1, "trace": 10, "parent": None,
            "name": "gateway.request", "attrs": {"tenant": "acme"},
        },
        {
            "type": "span", "id": 2, "trace": 10, "parent": 1,
            "name": "service.request", "attrs": {"query": "<1, *>"},
        },
        {
            "type": "span", "id": 3, "trace": 10, "parent": 2,
            "name": "query.execute",
            "attrs": {
                "query": "<1, *>", "qualified": 4,
                "buckets_per_device": [1, 1, 1, 1],
            },
        },
        {
            "type": "span", "id": 4, "trace": 12, "parent": 7,
            "name": "query.batch",
            "attrs": {
                "per_query": [
                    {
                        "query": "<*, 2>", "qualified": 4,
                        "buckets_per_device": [1, 1, 1, 1],
                    },
                    {
                        "query": "<1, 2>", "qualified": 1,
                        "buckets_per_device": [1, 0, 0, 0],
                    },
                ]
            },
        },
        {
            "type": "span", "id": 5, "trace": 11, "parent": None,
            "name": "query.execute",
            "attrs": {
                "query": "<*, *>", "qualified": 16,
                "buckets_per_device": [4, 4, 4, 4],
            },
        },
        {
            "type": "span", "id": 6, "trace": 12, "parent": None,
            "name": "gateway.request", "attrs": {"tenant": "acme"},
        },
        {
            "type": "span", "id": 7, "trace": 12, "parent": 6,
            "name": "service.batch_request",
            "attrs": {"queries": 2, "patterns": "*1 11"},
        },
    ]


class TestQueryMixProfiler:
    def test_pattern_of(self):
        assert pattern_of("<1, *, 3>") == "1*1"
        assert pattern_of("<*, *>") == "**"
        assert pattern_of("<0, 0>") == "11"

    def test_pattern_of_query_agrees_with_describe(self):
        fs = FileSystem.of(*FIELDS, m=DEVICES)
        query = PartialMatchQuery.from_dict(fs, {0: 1})
        assert pattern_of_query(query) == pattern_of(query.describe())

    def test_resolve_tenant_walks_to_gateway_span(self):
        records = _synthetic_records()
        index = span_index(records)
        assert resolve_tenant(records[2], index) == "acme"
        assert resolve_tenant(records[4], index) == ""

    def test_resolve_tenant_survives_cycles(self):
        loop = [
            {"type": "span", "id": 1, "trace": 1, "parent": 2,
             "name": "a", "attrs": {}},
            {"type": "span", "id": 2, "trace": 1, "parent": 1,
             "name": "b", "attrs": {}},
        ]
        assert resolve_tenant(loop[0], span_index(loop)) == ""

    def test_resolve_tenant_cycle_guard_keys_on_trace_and_id(self):
        """Regression: the cycle guard keyed on span id alone.

        Merged multi-run exports legitimately reuse span ids across
        traces.  Here the walk passes through two spans that share id 9
        but live in different traces (the index, hand-merged the way a
        multi-export aggregation would build it, maps (1, 5) to a record
        whose own trace is 2) — an id-only guard mistook the reuse for a
        cycle and never reached the tenanted ancestor."""
        start = {"type": "span", "id": 9, "trace": 1, "parent": 5,
                 "name": "query.execute", "attrs": {}}
        middle = {"type": "span", "id": 9, "trace": 2, "parent": 7,
                  "name": "stage", "attrs": {}}
        gateway = {"type": "span", "id": 7, "trace": 2, "parent": None,
                   "name": "gateway.request", "attrs": {"tenant": "acme"}}
        index = {(1, 5): middle, (2, 7): gateway}
        assert resolve_tenant(start, index) == "acme"

    def test_from_records_attributes_per_tenant(self):
        # Each query counts once, at its service span; the executor spans
        # below a service are not counted again.
        profile = QueryMixProfile.from_records(_synthetic_records())
        assert profile.observed == 4
        acme = profile.tenant("acme")
        assert acme.patterns == {"1*": 1, "*1": 1, "11": 1}
        assert profile.tenant("").patterns == {"**": 1}
        assert acme.frequencies() == {
            "*1": pytest.approx(1 / 3),
            "11": pytest.approx(1 / 3),
            "1*": pytest.approx(1 / 3),
        }

    def test_json_round_trip_and_byte_identity(self):
        profile = QueryMixProfile.from_records(_synthetic_records())
        text = profile.to_json()
        again = QueryMixProfile.from_records(_synthetic_records())
        assert again.to_json() == text
        rebuilt = QueryMixProfile.from_json(text)
        assert rebuilt.to_json() == text
        assert rebuilt.tenant("acme").patterns == profile.tenant(
            "acme"
        ).patterns

    def test_from_dict_rejects_wrong_type(self):
        with pytest.raises(ReproError):
            QueryMixProfile.from_dict(versioned({"type": "metrics"}))

    def test_from_dict_rejects_wrong_version(self):
        with pytest.raises(ReproError):
            QueryMixProfile.from_dict({"v": 999, "type": "profile"})

    @staticmethod
    def _profile_dict(count, observed):
        return versioned(
            {
                "type": "profile",
                "observed": observed,
                "tenants": {
                    "acme": {
                        "tenant": "acme",
                        "queries": observed,
                        "patterns": {"1*": count},
                    }
                },
            }
        )

    @pytest.mark.parametrize("count", [-1, 2.5, "3", True, None])
    def test_from_dict_rejects_malformed_counts(self, count):
        """Regression: negative, fractional, boolean and string counts
        were silently accepted and corrupted frequencies()."""
        with pytest.raises(ReproError):
            QueryMixProfile.from_dict(self._profile_dict(count, 1))

    @pytest.mark.parametrize("observed", [-1, 2.5, True])
    def test_from_dict_rejects_malformed_observed_total(self, observed):
        with pytest.raises(ReproError):
            QueryMixProfile.from_dict(self._profile_dict(1, observed))

    def test_from_dict_rejects_inconsistent_observed_total(self):
        """Regression: `observed` disagreeing with the summed pattern
        counts was silently accepted."""
        with pytest.raises(ReproError):
            QueryMixProfile.from_dict(self._profile_dict(2, 5))

    def test_from_dict_rejects_malformed_pattern(self):
        data = self._profile_dict(1, 1)
        data["tenants"]["acme"]["patterns"] = {"1x": 1}
        with pytest.raises(ReproError):
            QueryMixProfile.from_dict(data)

    def test_validated_round_trip_preserves_counts(self):
        data = self._profile_dict(3, 3)
        profile = QueryMixProfile.from_dict(data)
        assert profile.observed == 3
        assert profile.tenant("acme").patterns == {"1*": 3}
        assert QueryMixProfile.from_json(profile.to_json()).to_json() == (
            profile.to_json()
        )


# ======================================================================
# Tenant-attributed trace audit
# ======================================================================
class TestTraceAudit:
    def test_clean_audit(self):
        report = ObservedOptimalityChecker.audit_trace(_synthetic_records())
        assert report.queries == 4
        assert report.all_strict_optimal
        assert report.tenants == ["", "acme"]

    def test_violation_attributed_to_tenant(self):
        records = _synthetic_records()
        # Skew one observation past the bound: qualified 4 over 4 devices
        # allows at most ceil(4/4)=1 bucket per device.
        records[2]["attrs"]["buckets_per_device"] = [4, 0, 0, 0]
        report = ObservedOptimalityChecker.audit_trace(records)
        assert not report.all_strict_optimal
        [violation] = report.violations
        assert violation.tenant == "acme"
        assert violation.observed_max == 4
        assert violation.bound == 1
        assert report.violations_by_tenant() == {"acme": [violation]}
        assert report.to_dict()["violations"][0]["tenant"] == "acme"

    def test_entries_without_observations_skipped(self):
        records = [
            {"type": "span", "id": 1, "trace": 1, "parent": None,
             "name": "query.execute", "attrs": {"query": "<1, *>"}},
        ]
        report = ObservedOptimalityChecker.audit_trace(records)
        assert report.queries == 0

    @pytest.mark.parametrize(
        "malform",
        [
            lambda span: span.pop("id"),
            lambda span: span["attrs"].update(qualified="four"),
            lambda span: span["attrs"].update(buckets_per_device=4),
        ],
        ids=["span-without-id", "non-integer-qualified", "non-list-buckets"],
    )
    def test_malformed_record_fails_typed(self, malform):
        records = _synthetic_records()
        malform(records[2])  # the served query.execute span
        with pytest.raises(AnalysisError):
            ObservedOptimalityChecker.audit_trace(records)


# ======================================================================
# Loopback propagation: one trace tree across the wire
# ======================================================================
class TestLoopbackPropagation:
    def test_every_service_span_carries_gateway_trace(self, gateway_factory):
        gateway, address = gateway_factory()
        spec = LoadSpec(
            clients=3,
            requests_per_client=12,
            seed=3,
            write_every=5,
            batch_every=4,
            preload=4,
        )
        report = run_loopback_load(
            address, list(gateway.tenants.values()), spec
        )
        assert not report.errors
        assert gateway.drain()
        spans = _span_records()
        index = span_index(spans)
        roots = [s for s in spans if s["name"] == "gateway.request"]
        assert roots and all(s["parent"] is None for s in roots)

        # The service runs on the connection thread, so its span is a
        # plain local child of the request span, in the same trace.
        service_spans = [s for s in spans if s["name"] == "service.request"]
        assert service_spans
        for span in service_spans:
            parent = index.get((span["trace"], span["parent"]))
            assert parent is not None
            assert parent["name"] == "gateway.request"
            assert not span.get("remote")

        query_spans = [
            s for s in spans
            if s["name"] in ("query.execute", "query.batch")
        ]
        assert query_spans
        reachable = sum(
            1 for s in query_spans if _reachable_from_gateway(s, index)
        )
        assert reachable / len(query_spans) >= 0.95

        span_ids = [s["id"] for s in spans]
        assert len(span_ids) == len(set(span_ids))

    def test_client_trace_ids_deterministic_per_seed(self, gateway_factory):
        def stamped_traces() -> set[int]:
            obs.reset_telemetry()
            gateway, address = gateway_factory(["alpha"])
            report = run_loopback_load(
                address,
                list(gateway.tenants.values()),
                LoadSpec(
                    clients=2,
                    requests_per_client=5,
                    seed=11,
                ),
            )
            assert not report.errors
            assert gateway.drain()
            return {
                s["trace"]
                for s in _span_records()
                if s["name"] == "gateway.request"
            }

        assert stamped_traces() == stamped_traces()

    def test_activated_context_propagates_from_local_span(
        self, gateway_factory
    ):
        __, address = gateway_factory(["alpha"])
        with GatewayClient(*address, tenant="alpha") as client:
            with trace_span("caller.request") as caller:
                assert client.ping()
        spans = _span_records()
        [request] = [s for s in spans if s["name"] == "gateway.request"]
        assert request["trace"] == caller.trace_id
        assert request["parent"] == caller.span_id
        assert request["remote"] is True

    def test_obs_wire_op_serves_live_snapshot(self, gateway_factory):
        gateway, address = gateway_factory()
        report = run_loopback_load(
            address,
            list(gateway.tenants.values()),
            LoadSpec(clients=2, requests_per_client=8, seed=1),
        )
        assert not report.errors
        with GatewayClient(*address, tenant="alpha") as client:
            snapshot = client.obs()
        assert gateway.drain()
        counters = snapshot["metrics"]["counters"]
        for tenant in ("alpha", "beta"):
            assert counters[f"gateway.ok{{tenant={tenant}}}"] > 0
            slo = snapshot["slo"]["tenants"][tenant]
            assert slo["requests"] > 0
            assert slo["availability"] == 1.0
        rebuilt = SloReport.from_dict(snapshot["slo"])
        assert rebuilt.healthy

    def test_obs_op_needs_no_tenant(self, gateway_factory):
        __, address = gateway_factory(["alpha"])
        with GatewayClient(*address) as client:
            snapshot = client.obs()
        assert "metrics" in snapshot and "slo" in snapshot

    def test_mode_labeled_service_latency(self, gateway_factory):
        gateway, address = gateway_factory(["alpha"])
        report = run_loopback_load(
            address,
            list(gateway.tenants.values()),
            LoadSpec(
                clients=1,
                requests_per_client=8,
                seed=2,
                batch_every=2,
            ),
        )
        assert not report.errors
        assert gateway.drain()
        histograms = telemetry().metrics.snapshot().histograms
        modes = {
            parse_labeled_name(series)[1].get("mode")
            for series in histograms
            if series.startswith("service.latency_ms{")
        }
        assert "batched" in modes


# ======================================================================
# Profiler exactness over a deterministic wire workload
# ======================================================================
class TestProfilerExactness:
    def _expected_patterns(self, spec: LoadSpec) -> dict[str, int]:
        fs = FileSystem.of(*FIELDS, m=DEVICES)
        expected: dict[str, int] = {}

        def count(specified):
            query = PartialMatchQuery.from_dict(fs, dict(specified))
            pattern = pattern_of_query(query)
            expected[pattern] = expected.get(pattern, 0) + 1

        for connection in range(spec.clients):
            for kind, payload in op_log(fs, spec, connection, "gamma"):
                if kind == "query":
                    count(payload)
                elif kind == "batch":
                    for specified in payload:
                        count(specified)
        return expected

    def _profile_json(self, gateway_factory, spec: LoadSpec) -> str:
        obs.configure(clock=ManualClock(step=0.001), reset=True)
        # Default serving options: cache hits and coalesced followers
        # must be counted as well as the reads that reach the executor.
        gateway, address = gateway_factory(["gamma"])
        report = run_loopback_load(
            address, list(gateway.tenants.values()), spec
        )
        assert not report.errors
        assert gateway.drain()
        profile = QueryMixProfile.from_records(telemetry().export_records())
        assert set(profile.tenants) == {"gamma"}
        return profile.to_json()

    def test_profile_matches_generator_exactly(self, gateway_factory):
        # Deliberately skewed mix: 60% of queries drawn from a 2-query
        # hot pool, the rest from the seeded workload stream.
        spec = LoadSpec(
            clients=2,
            requests_per_client=15,
            seed=5,
            batch_every=4,
            batch_size=3,
            write_every=5,
            hot_fraction=0.6,
            hot_pool=2,
        )
        text = self._profile_json(gateway_factory, spec)
        profile = QueryMixProfile.from_json(text)
        assert profile.tenant("gamma").patterns == self._expected_patterns(
            spec
        )
        # Byte-identical across two full wire runs.
        assert self._profile_json(gateway_factory, spec) == text

    def test_batch_of_cache_hits_is_fully_counted(self):
        from repro.api import make_service

        service = make_service("fx", fields=FIELDS, devices=DEVICES)
        for i in range(4):
            service.insert((i, i))
        queries = [
            service.file.query({0: 1}),
            service.file.query({1: 2}),
            service.file.query({0: 1, 1: 1}),
        ]
        service.execute_many(queries)  # misses: one engine batch
        repeat = service.execute_many(queries)
        assert [result.cache_hit for result in repeat] == ["exact"] * 3
        records = telemetry().export_records()
        # The all-hit batch never reached the engine ...
        assert len([
            r for r in _span_records(records) if r["name"] == "query.batch"
        ]) == 1
        # ... yet every query of both batches is counted, once.
        profile = QueryMixProfile.from_records(records)
        assert profile.observed == 6
        assert profile.tenant("").patterns == {"1*": 2, "*1": 2, "11": 2}


# ======================================================================
# Coalesced followers link to their leader's span
# ======================================================================
class TestCoalescedFollowerLinks:
    def test_follower_span_links_leader(self):
        from repro.api import make_service

        service = make_service("fx", fields=FIELDS, devices=DEVICES)
        for i in range(4):
            service.insert((i, i))
        query = service.file.query({0: 1})

        release = threading.Event()
        original = service.cache.lookup

        def slow_lookup(q):
            release.wait(timeout=5.0)
            return original(q)

        service.cache.lookup = slow_lookup
        results = [None] * 3

        def serve(slot):
            results[slot] = service.execute(query)

        threads = [
            threading.Thread(target=serve, args=(slot,)) for slot in range(3)
        ]
        try:
            for thread in threads:
                thread.start()
            # Let followers pile onto the leader's in-flight entry.
            deadline = 100
            while deadline and not service._inflight:
                deadline -= 1
                time.sleep(0.01)
            time.sleep(0.05)
            release.set()
            for thread in threads:
                thread.join(timeout=5.0)
        finally:
            release.set()
            service.cache.lookup = original
        assert not any(thread.is_alive() for thread in threads)
        assert sum(1 for r in results if r.coalesced) >= 1
        spans = _span_records()
        followers = [
            s for s in spans
            if s["name"] == "service.request"
            and "leader_trace" in s["attrs"]
        ]
        assert followers
        leader_traces = {s["attrs"]["leader_trace"] for s in followers}
        request_traces = {
            s["trace"] for s in spans if s["name"] == "service.request"
        }
        assert leader_traces <= request_traces


# ======================================================================
# CLI surface
# ======================================================================
class TestObservabilityCli:
    def test_obs_slo_json(self, capsys):
        assert main([
            "obs", "slo", "--fields", "4,4", "--devices", "4",
            "--connections", "1", "--requests", "6", "--json",
        ]) == 0
        import json

        data = json.loads(capsys.readouterr().out)
        assert data["healthy"] is True
        for tenant in ("alpha", "beta"):
            assert data["tenants"][tenant]["requests"] > 0
            assert data["tenants"][tenant]["availability"] == 1.0

    def test_obs_slo_burned_budget_fails(self, capsys):
        assert main([
            "obs", "slo", "--fields", "4,4", "--devices", "4",
            "--connections", "2", "--requests", "10", "--quota", "8",
        ]) == 1
        out = capsys.readouterr().out
        assert "SLO report" in out

    def test_obs_export_trace_id_filter(self, capsys, tmp_path):
        assert main([
            "obs", "export", "--fields", "4,4", "--devices", "4",
            "--queries", "4", "--deterministic-clock",
        ]) == 0
        import json

        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
        ]
        target = next(
            r["trace"] for r in lines
            if r.get("type") == "span" and r["name"] == "query.execute"
        )
        assert main([
            "obs", "export", "--fields", "4,4", "--devices", "4",
            "--queries", "4", "--deterministic-clock",
            "--trace-id", str(target),
        ]) == 0
        filtered = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
        ]
        assert filtered
        assert all(r["trace"] == target for r in filtered)

    def test_obs_tail_tenant_filter_excludes_untenanted(self, capsys):
        assert main([
            "obs", "tail", "--fields", "4,4", "--devices", "4",
            "--queries", "4", "--tenant", "nosuch",
        ]) == 0
        assert capsys.readouterr().out.strip() == ""

    def test_gateway_export_jsonl_reachability(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.jsonl"
        assert main([
            "gateway", "--fields", "4,4", "--devices", "4",
            "--connections", "2", "--requests", "8",
            "--export-jsonl", str(path),
        ]) == 0
        capsys.readouterr()
        records = [
            json.loads(line)
            for line in path.read_text().splitlines()
        ]
        spans = [r for r in records if r.get("type") == "span"]
        index = span_index(spans)
        query_spans = [
            s for s in spans
            if s["name"] in ("query.execute", "query.batch")
        ]
        assert query_spans
        reachable = sum(
            1 for s in query_spans if _reachable_from_gateway(s, index)
        )
        assert reachable / len(query_spans) >= 0.95
