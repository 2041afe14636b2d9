"""Tests for the chaos-hardened network tier.

Covers the deterministic fault models (seeded draws, scripts), the
fault-injecting proxy with scripted exactly-once scenarios per fault
kind, the circuit breaker (manual clock), client socket timeouts as
typed errors, WAL entry metadata round-trips, crash-restart recovery
through the supervisor, the invariant-proving harness (zero stale reads,
no lost/duplicated acknowledged writes, byte-identical reports per
seed), frame-decoder fuzzing under torn/garbage input, and the ``chaos``
CLI exit semantics.
"""

from __future__ import annotations

import json
import socket
import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.chaos import (
    FAULT_KINDS,
    ChaosReport,
    ChaosSpec,
    NetFaultInjector,
    NetFaultPlan,
    RestartableGateway,
    run_chaos_load,
)
from repro.chaos.proxy import ChaosEndpoint
from repro.cli import main
from repro.durability.wal import WalEntry, WriteAheadLog, read_wal
from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    ConnectionLostError,
    FrameTooLargeError,
    GatewayTimeoutError,
    ProtocolError,
    ReproError,
)
from repro.gateway import (
    CircuitBreaker,
    FrameDecoder,
    Gateway,
    GatewayClient,
    ResilientGatewayClient,
    TenantSpec,
    encode_frame,
)
from repro.runtime import RetryPolicy
from repro.service import LoadSpec

FIELDS = (4, 4)
DEVICES = 4


@pytest.fixture(autouse=True)
def _fresh_telemetry():
    obs.reset_telemetry()
    yield
    obs.reset_telemetry()


def _spec(name="alpha", **options):
    return TenantSpec.of(name, FIELDS, DEVICES, **options)


FAST_RETRY = RetryPolicy(max_attempts=5, base_delay_ms=1.0, max_delay_ms=5.0)


# ----------------------------------------------------------------------
# Fault models
# ----------------------------------------------------------------------
class TestNetFaultPlan:
    def test_default_plan_is_trivial(self):
        assert NetFaultPlan.none().is_trivial
        assert not NetFaultPlan(tear_rate=0.1).is_trivial
        assert not NetFaultPlan(script={(0, 0): "tear"}).is_trivial

    def test_rates_validated(self):
        with pytest.raises(ConfigurationError):
            NetFaultPlan(tear_rate=1.5)
        with pytest.raises(ConfigurationError):
            NetFaultPlan(refuse_rate=-0.1)
        with pytest.raises(ConfigurationError):
            # Exchange rates must sum below 1.
            NetFaultPlan.uniform(0.25)
        with pytest.raises(ConfigurationError):
            NetFaultPlan(script={(0, 0): "explode"})
        with pytest.raises(ConfigurationError):
            NetFaultPlan(tear_chunks=1)

    def test_draws_are_deterministic_and_seed_sensitive(self):
        plan = NetFaultPlan.uniform(0.15, seed=42)
        a = NetFaultInjector(plan)
        b = NetFaultInjector(plan)
        draws = [
            a.exchange_fault("alpha", 0, epoch, exchange)
            for epoch in range(4)
            for exchange in range(16)
        ]
        assert draws == [
            b.exchange_fault("alpha", 0, epoch, exchange)
            for epoch in range(4)
            for exchange in range(16)
        ]
        assert any(kind is not None for kind in draws)
        other = NetFaultInjector(NetFaultPlan.uniform(0.15, seed=43))
        assert draws != [
            other.exchange_fault("alpha", 0, epoch, exchange)
            for epoch in range(4)
            for exchange in range(16)
        ]

    def test_endpoints_draw_independent_streams(self):
        injector = NetFaultInjector(NetFaultPlan.uniform(0.15, seed=1))
        alpha = [
            injector.exchange_fault("alpha", 0, 0, k) for k in range(64)
        ]
        beta = [
            injector.exchange_fault("beta", 0, 0, k) for k in range(64)
        ]
        assert alpha != beta

    def test_script_and_refuse_epochs_pin_faults(self):
        injector = NetFaultInjector(
            NetFaultPlan(
                script={(0, 2): "duplicate", (1, 0): "tear"},
                refuse_epochs=frozenset({3}),
            )
        )
        assert injector.exchange_fault("any", 9, 0, 2) == "duplicate"
        assert injector.exchange_fault("any", 9, 1, 0) == "tear"
        assert injector.exchange_fault("any", 9, 0, 0) is None
        assert injector.refuse_connection("any", 9, 3)
        assert not injector.refuse_connection("any", 9, 2)

    def test_zero_rate_kind_never_drawn(self):
        injector = NetFaultInjector(
            NetFaultPlan(seed=5, tear_rate=0.3, delay_rate=0.3)
        )
        draws = {
            injector.exchange_fault("alpha", 0, epoch, exchange)
            for epoch in range(8)
            for exchange in range(32)
        }
        assert draws <= {None, "tear", "delay"}


# ----------------------------------------------------------------------
# Circuit breaker (manual clock: no wall-clock flake)
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_trips_after_threshold_and_fails_fast(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=3, cooldown_s=10.0, clock=lambda: clock[0]
        )
        for __ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_half_open_probe_and_recovery(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=5.0, clock=lambda: clock[0]
        )
        breaker.record_failure()
        assert not breaker.allow()
        clock[0] = 5.0
        # First caller after cooldown is the probe; the next is not.
        assert breaker.allow()
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_half_open_failure_reopens(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=2, cooldown_s=1.0, clock=lambda: clock[0]
        )
        breaker.record_failure()
        breaker.record_failure()
        clock[0] = 1.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.trips == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(cooldown_s=0.0)


# ----------------------------------------------------------------------
# Typed client timeouts (satellite: no indefinite hangs)
# ----------------------------------------------------------------------
class TestClientTimeouts:
    def test_unresponsive_server_raises_typed_timeout(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()[:2]
        accepted = []
        thread = threading.Thread(
            target=lambda: accepted.append(listener.accept()[0]),
            daemon=True,
        )
        thread.start()
        try:
            client = GatewayClient(host, port, tenant="alpha", timeout_s=0.2)
            with pytest.raises(GatewayTimeoutError) as excinfo:
                client.ping()
            assert isinstance(excinfo.value, ReproError)
            assert "0.2" in str(excinfo.value)
            client.close()
        finally:
            listener.close()
            thread.join(timeout=1.0)
            for sock in accepted:
                sock.close()

    def test_refused_connect_raises_connection_lost(self):
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ConnectionLostError):
            GatewayClient("127.0.0.1", port, tenant="alpha", timeout_s=0.5)


# ----------------------------------------------------------------------
# WAL entry metadata
# ----------------------------------------------------------------------
class TestWalMeta:
    def test_meta_round_trips_through_frames(self):
        wal = WriteAheadLog()
        wal.append_insert((1, 2), meta={"idem": "k:0"})
        wal.append_insert((3, 4))
        entries, torn = read_wal(wal.to_bytes())
        assert torn == 0
        assert entries[0].meta == {"idem": "k:0"}
        assert entries[1].meta is None

    def test_none_meta_preserves_pre_meta_bytes(self):
        # The meta field must be additive: entries without meta serialise
        # exactly as they did before the field existed.
        assert (
            WalEntry("insert", (1, 2)).payload()
            == b'{"op":"insert","record":[1,2]}'
        )

    def test_from_bytes_rebuilds_meta_and_torn_tail(self):
        wal = WriteAheadLog()
        wal.append_insert((9, 9), meta={"idem": "x"})
        frame = WalEntry("insert", (0, 0)).frame()
        reopened = WriteAheadLog.from_bytes(
            wal.to_bytes() + frame[: len(frame) // 2]
        )
        assert reopened.entry_count == 1
        assert reopened.entries()[0].meta == {"idem": "x"}
        assert reopened.torn_bytes_discarded == len(frame) // 2

    def test_bad_meta_rejected(self):
        with pytest.raises(ConfigurationError):
            WalEntry("insert", (1,), meta="not-a-mapping")


# ----------------------------------------------------------------------
# Scripted faults through the proxy: exactly-once per fault kind
# ----------------------------------------------------------------------
@pytest.fixture
def supervised():
    """A WAL-durable supervised gateway plus teardown bookkeeping."""
    supervisor = RestartableGateway([_spec()])
    supervisor.start()
    endpoints: list[ChaosEndpoint] = []
    clients: list[ResilientGatewayClient] = []
    try:
        yield supervisor, endpoints, clients
    finally:
        for client in clients:
            client.close()
        for endpoint in endpoints:
            endpoint.stop()
        supervisor.stop()


def _chaos_client(supervisor, endpoints, clients, plan, **kwargs):
    endpoint = ChaosEndpoint(
        supervisor.address, NetFaultInjector(plan), "alpha", 0
    )
    host, port = endpoint.start()
    endpoints.append(endpoint)
    kwargs.setdefault("retry", FAST_RETRY)
    kwargs.setdefault("timeout_s", 2.0)
    kwargs.setdefault("trace_seed", 7)
    kwargs.setdefault("idem_prefix", "t")
    client = ResilientGatewayClient(
        host, port, tenant="alpha", fields=FIELDS, devices=DEVICES, **kwargs
    )
    clients.append(client)
    return client, endpoint


class TestScriptedExactlyOnce:
    @pytest.mark.parametrize(
        "kind,expect_dedup,expect_retries",
        [
            ("reset_request", 0, 1),
            ("reset_response", 1, 1),
            ("tear", 0, 0),
            ("duplicate", 0, 0),
            ("delay", 0, 0),
        ],
    )
    def test_one_faulted_write_applies_exactly_once(
        self, supervised, kind, expect_dedup, expect_retries
    ):
        supervisor, endpoints, clients = supervised
        client, endpoint = _chaos_client(
            supervisor,
            endpoints,
            clients,
            NetFaultPlan(script={(0, 0): kind}),
        )
        bucket, version = client.insert((1, 2))
        entries = supervisor.wal_entries("alpha")
        assert len(entries) == 1, (
            f"{kind}: write must apply exactly once, got {len(entries)}"
        )
        assert entries[0].record == (1, 2)
        assert entries[0].meta == {"idem": "t:0"}
        assert version == 1
        assert client.deduped == expect_dedup
        assert client.retries == expect_retries
        assert endpoint.faults.get(kind) == 1

    def test_refused_connection_retries_on_fresh_epoch(self, supervised):
        supervisor, endpoints, clients = supervised
        client, endpoint = _chaos_client(
            supervisor,
            endpoints,
            clients,
            NetFaultPlan(refuse_epochs=frozenset({0})),
        )
        assert client.ping()
        assert client.retries >= 1
        assert endpoint.faults.get("refuse") == 1

    def test_duplicate_response_never_corrupts_the_stream(self, supervised):
        supervisor, endpoints, clients = supervised
        client, __ = _chaos_client(
            supervisor,
            endpoints,
            clients,
            NetFaultPlan(script={(0, 0): "duplicate"}),
        )
        # The duplicated frame is followed by a proxy-side close; the
        # *next* request must come back correct on a fresh connection.
        assert client.ping()
        result = client.query({0: 1})
        assert result.ok
        assert client.reconnects == 1

    def test_breaker_opens_against_a_dead_endpoint(self):
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ResilientGatewayClient(
            "127.0.0.1",
            port,
            tenant="alpha",
            retry=RetryPolicy(max_attempts=6, base_delay_ms=0.0),
            timeout_s=0.5,
            breaker=CircuitBreaker(failure_threshold=2, cooldown_s=60.0),
        )
        with pytest.raises(CircuitOpenError):
            client.ping()
        # Fail-fast: the breaker is open, no further connects are tried.
        with pytest.raises(CircuitOpenError):
            client.ping()
        snap = obs.telemetry().metrics.snapshot()
        assert snap.counters.get("chaos.breaker_open{tenant=alpha}", 0) >= 1


# ----------------------------------------------------------------------
# Crash-restart recovery
# ----------------------------------------------------------------------
class TestRestartableGateway:
    def test_crash_restart_recovers_writes_and_idem_window(self):
        supervisor = RestartableGateway([_spec()])
        host, port = supervisor.start()
        try:
            with GatewayClient(host, port, tenant="alpha") as client:
                acked = []
                for n in range(4):
                    __, version = client.insert((n, n), idem=f"k:{n}")
                    acked.append(version)
            supervisor.crash(torn_tail=True)
            assert supervisor.gateway is None
            restarted = supervisor.restart()
            assert restarted == (host, port)
            tenant = supervisor.gateway.tenants["alpha"]
            assert tenant.recovered["entries"] == 4
            assert tenant.recovered["torn_bytes"] > 0
            with GatewayClient(host, port, tenant="alpha") as client:
                # Retrying a pre-crash idempotency key must dedup, not
                # re-apply: the window was rebuilt from WAL metadata.
                __, version = client.insert((0, 0), idem="k:0")
                assert version == acked[0]
                stats = client.stats()
                assert stats["write_version"] == 4
                assert stats["durable"] is True
            assert len(supervisor.wal_entries("alpha")) == 4
        finally:
            supervisor.stop()

    def test_health_op_reports_readiness_and_recovery(self):
        supervisor = RestartableGateway([_spec()])
        host, port = supervisor.start()
        try:
            with GatewayClient(host, port, tenant="alpha") as client:
                health = client.health()
                assert health["ready"] is True
                assert health["draining"] is False
                assert health["tenants"]["alpha"]["recovered"] is None
                client.insert((1, 1), idem="h:0")
            supervisor.crash()
            supervisor.restart()
            with GatewayClient(host, port, tenant="alpha") as client:
                health = client.health()
                assert health["tenants"]["alpha"]["recovered"] == {
                    "entries": 1,
                    "torn_bytes": 0,
                }
        finally:
            supervisor.stop()

    def test_crash_without_running_gateway_raises(self):
        supervisor = RestartableGateway([_spec()])
        with pytest.raises(ReproError):
            supervisor.crash()


# ----------------------------------------------------------------------
# The harness: invariants under randomized chaos
# ----------------------------------------------------------------------
def _run(spec_kwargs=None, tenants=("alpha",)):
    spec_kwargs = dict(spec_kwargs or {})
    load = LoadSpec(
        clients=2,
        requests_per_client=8,
        write_every=3,
        preload=2,
        seed=spec_kwargs.pop("seed", 0),
    )
    spec = ChaosSpec(
        load=load, timeout_s=5.0, retry=FAST_RETRY, **spec_kwargs
    )
    return run_chaos_load([_spec(name) for name in tenants], spec)


class TestChaosHarness:
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_invariants_hold_per_fault_kind(self, kind):
        rate_field = f"{kind}_rate"
        report = _run(
            {
                "faults": NetFaultPlan(seed=11, **{rate_field: 0.2}),
                "crash_at": None,
                "seed": 11,
            }
        )
        assert report.verify() == []
        assert report.errors == []

    def test_invariants_hold_through_crash_restart(self):
        report = _run(
            {
                "faults": NetFaultPlan.uniform(0.06, seed=5, refuse_rate=0.1),
                "crash_at": 0.5,
                "torn_tail": True,
                "seed": 5,
            },
            tenants=("alpha", "beta"),
        )
        assert report.crashes == 1
        assert report.verify() == []
        # Recovery actually happened: the preloads guarantee WAL content.
        assert all(
            (info or {}).get("entries", 0) >= 2
            for info in report.recovered.values()
        )
        assert isinstance(report, ChaosReport)

    def test_identical_seeds_produce_identical_reports(self):
        kwargs = {
            "faults": NetFaultPlan.uniform(0.08, seed=7, refuse_rate=0.1),
            "crash_at": 0.5,
            "torn_tail": True,
            "seed": 7,
        }
        a, b = _run(kwargs), _run(kwargs)
        canonical_a = json.dumps(a.canonical_dict(), sort_keys=True)
        canonical_b = json.dumps(b.canonical_dict(), sort_keys=True)
        assert canonical_a == canonical_b
        assert a.canonical_digest() == b.canonical_digest()

    def test_different_seeds_differ(self):
        base = {"faults": NetFaultPlan.uniform(0.08, seed=1), "seed": 1}
        other = {"faults": NetFaultPlan.uniform(0.08, seed=2), "seed": 2}
        assert (
            _run(base).canonical_digest() != _run(other).canonical_digest()
        )

    def test_clean_run_has_no_faults_and_full_availability(self):
        report = _run({"crash_at": None})
        assert report.faults_injected == 0
        assert report.availability == 1.0
        assert report.total_retries == 0
        assert report.verify() == []

    def test_verify_flags_lost_and_duplicated_writes(self):
        report = _run({"crash_at": None})
        # Forge a lost acknowledged write…
        report.acked["alpha"].append((999, (1, 2)))
        violations = report.verify()
        assert any("LOST" in message for message in violations)
        # …and a doubly applied idempotency key.
        report.acked["alpha"].pop()
        report.wal_idem["alpha"] = ["dup", "dup"]
        assert any(
            "DOUBLY APPLIED" in message for message in report.verify()
        )

    def test_chaos_metrics_are_tenant_labeled(self):
        obs.reset_telemetry()
        _run(
            {
                "faults": NetFaultPlan(seed=3, reset_response_rate=0.25),
                "crash_at": 0.5,
                "seed": 3,
            }
        )
        counters = obs.telemetry().metrics.snapshot().counters
        assert any(
            name.startswith("chaos.faults{") and "tenant=alpha" in name
            for name in counters
        )
        assert counters.get("chaos.crashes", 0) == 1
        assert "chaos.recovered_writes{tenant=alpha}" in counters
        assert "gateway.retries{tenant=alpha}" in counters

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            ChaosSpec(crash_at=1.5)
        with pytest.raises(ConfigurationError):
            ChaosSpec(load=LoadSpec(clients=0))
        with pytest.raises(ConfigurationError):
            ChaosSpec(timeout_s=0.0)


# ----------------------------------------------------------------------
# FrameDecoder fuzzing (satellite: torn frames and garbage never crash)
# ----------------------------------------------------------------------
def _frame_of(payload: dict) -> bytes:
    return encode_frame(payload)


@settings(max_examples=60, deadline=None)
@given(
    payloads=st.lists(
        st.dictionaries(
            st.sampled_from(["op", "id", "tenant", "x"]),
            st.one_of(st.integers(-(2**31), 2**31), st.text(max_size=8)),
            max_size=4,
        ),
        min_size=1,
        max_size=5,
    ),
    chunk_sizes=st.lists(st.integers(1, 7), min_size=1, max_size=40),
)
def test_decoder_is_chunking_invariant(payloads, chunk_sizes):
    stream = b"".join(_frame_of(payload) for payload in payloads)
    decoder = FrameDecoder()
    decoded: list[dict] = []
    offset = 0
    k = 0
    while offset < len(stream):
        size = chunk_sizes[k % len(chunk_sizes)]
        decoded.extend(decoder.feed(stream[offset : offset + size]))
        offset += size
        k += 1
    assert decoded == payloads
    assert decoder.buffered == 0


@settings(max_examples=60, deadline=None)
@given(garbage=st.binary(min_size=1, max_size=64))
def test_decoder_never_crashes_on_garbage(garbage):
    decoder = FrameDecoder(max_frame_bytes=1024)
    try:
        decoder.feed(garbage)
    except (ProtocolError, FrameTooLargeError):
        # A poisoned stream is a *protocol* error — the typed signal the
        # server maps to a coded ``bad_frame`` response.  Anything else
        # (KeyError, struct.error, UnicodeDecodeError…) is a crash bug.
        pass


@settings(max_examples=30, deadline=None)
@given(
    garbage=st.binary(min_size=1, max_size=32),
    payload=st.dictionaries(
        st.sampled_from(["op", "id"]), st.integers(0, 100), max_size=2
    ),
)
def test_decoder_after_garbage_either_errors_or_stays_consistent(
    garbage, payload
):
    # Feeding garbage then a valid frame must never yield a *wrong*
    # payload silently: either the stream errors (close + resync on a new
    # connection, which is what the resilient client does) or the garbage
    # was a syntactically valid prefix still waiting for bytes.
    decoder = FrameDecoder(max_frame_bytes=1024)
    try:
        first = decoder.feed(garbage)
        assert first == []  # garbage alone can never complete a frame
        decoder.feed(_frame_of(payload))
    except (ProtocolError, FrameTooLargeError):
        pass


def test_decoder_rejects_oversized_header_immediately():
    decoder = FrameDecoder(max_frame_bytes=64)
    with pytest.raises(FrameTooLargeError):
        decoder.feed(struct.pack(">I", 65))
    # Undersized declarations buffer quietly.
    fresh = FrameDecoder(max_frame_bytes=64)
    assert fresh.feed(struct.pack(">I", 64)) == []
    assert fresh.buffered == 4


# ----------------------------------------------------------------------
# Trace propagation across retries
# ----------------------------------------------------------------------
def test_retried_request_is_one_trace(supervised):
    supervisor, endpoints, clients = supervised
    client, __ = _chaos_client(
        supervisor,
        endpoints,
        clients,
        NetFaultPlan(script={(0, 0): "reset_response"}),
    )
    client.insert((3, 3))
    spans = [
        record
        for record in obs.telemetry().export_records()
        if record.get("type") == "span"
    ]
    requests = [span for span in spans if span["name"] == "client.request"]
    assert len(requests) == 1
    (request,) = requests
    events = {event["name"] for event in request.get("events", [])}
    assert "chaos.retry" in events
    assert "chaos.fault" in events
    # Both server-side attempts joined the client's trace, so ``obs tail
    # --trace-id`` shows the retried request as one tree.
    server_spans = [
        span
        for span in spans
        if span["name"] == "gateway.request"
        and span["trace"] == request["trace"]
    ]
    assert len(server_spans) == 2


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestChaosCli:
    def test_chaos_cli_smoke_rc_zero(self, capsys):
        rc = main(
            [
                "chaos",
                "--fields", "4,4",
                "--devices", "4",
                "--connections", "1",
                "--requests", "6",
                "--fault-rate", "0.05",
                "--torn-tail",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "invariant violations" in out
        assert "canonical digest" in out

    def test_chaos_cli_json(self, capsys):
        rc = main(
            [
                "chaos",
                "--fields", "4,4",
                "--devices", "4",
                "--connections", "1",
                "--requests", "6",
                "--no-crash",
                "--fault-rate", "0.0",
                "--json",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        data = json.loads(out)
        assert data["violations"] == []
        assert data["availability"] == 1.0
        assert data["crashes"] == 0
