"""Tests for the multi-tenant network gateway and the service futures.

Covers the wire protocol (framing, torn frames, oversized rejection,
versioned envelope), the server ops, per-tenant quotas and rate limits,
client-disconnect and graceful-drain semantics, the loopback multi-tenant
load test with serial-replay staleness verification, the
``QueryService`` futures surface, the ``make_gateway`` facade and the
``serve`` / ``gateway`` CLI exit semantics.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time

import pytest

from repro import obs
from repro.api import make_gateway, make_service
from repro.cli import main
from repro.envelope import SCHEMA_VERSION, check_version, versioned
from repro.errors import (
    ConfigurationError,
    FrameTooLargeError,
    ProtocolError,
    ReproError,
)
from repro.gateway import (
    FrameDecoder,
    Gateway,
    GatewayClient,
    GatewayConfig,
    GatewayRequestError,
    TenantSpec,
    TokenBucket,
    encode_frame,
    recv_frame,
    run_loopback_load,
)
from repro.gateway import protocol
from repro.hashing.fields import FileSystem
from repro.query.partial_match import PartialMatchQuery
from repro.service.frontend import ServiceResult
from repro.service.loadgen import LoadReport, LoadSpec, RequestRecord, op_log
from repro.storage.executor import QueryExecutor
from repro.storage.parallel_file import PartitionedFile


FIELDS = (4, 4)
DEVICES = 4


@pytest.fixture(autouse=True)
def _fresh_telemetry():
    obs.reset_telemetry()
    yield
    obs.reset_telemetry()


@pytest.fixture
def gateway_factory():
    """Build started gateways and guarantee they are closed after the test."""
    gateways: list[Gateway] = []

    def build(tenants=("alpha", "beta"), **kwargs):
        kwargs.setdefault("fields", FIELDS)
        kwargs.setdefault("devices", DEVICES)
        kwargs.setdefault("cache_capacity", 16)
        if not isinstance(tenants, dict):
            tenants = list(tenants)
        gateway = make_gateway(tenants, **kwargs)
        gateways.append(gateway)
        address = gateway.start()
        return gateway, address

    yield build
    for gateway in gateways:
        gateway.close()


def _counters():
    return obs.telemetry().metrics.snapshot().counters


# ======================================================================
# Framing
# ======================================================================
class TestFraming:
    def test_round_trip(self):
        payload = versioned({"id": 1, "op": "ping"})
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(payload)) == [payload]
        assert decoder.buffered == 0

    def test_torn_frames_byte_at_a_time(self):
        payloads = [
            versioned({"id": i, "op": "ping", "pad": "x" * i})
            for i in range(5)
        ]
        stream = b"".join(encode_frame(p) for p in payloads)
        decoder = FrameDecoder()
        decoded: list[dict] = []
        for i in range(len(stream)):
            decoded.extend(decoder.feed(stream[i:i + 1]))
        assert decoded == payloads
        assert decoder.buffered == 0

    def test_many_frames_in_one_feed(self):
        payloads = [versioned({"id": i}) for i in range(8)]
        stream = b"".join(encode_frame(p) for p in payloads)
        assert FrameDecoder().feed(stream) == payloads

    def test_oversized_frame_rejected_from_header_alone(self):
        decoder = FrameDecoder(max_frame_bytes=64)
        # Header declares a 1 GiB body; only 8 bytes ever arrive.
        header = struct.pack(">I", 1 << 30)
        with pytest.raises(FrameTooLargeError) as excinfo:
            decoder.feed(header + b"asdfasdf")
        assert excinfo.value.declared == 1 << 30
        assert excinfo.value.limit == 64
        # Bounded read: nothing close to the declared size was buffered.
        assert decoder.buffered <= len(header) + 8

    def test_undecodable_body_raises(self):
        bad = struct.pack(">I", 3) + b"{{{"
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(bad)

    def test_non_object_body_raises(self):
        bad = struct.pack(">I", 2) + b"[]"
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(bad)

    def test_decoder_requires_positive_cap(self):
        with pytest.raises(ProtocolError):
            FrameDecoder(max_frame_bytes=0)


# ======================================================================
# Versioned envelope — one schema shared by wire, results and obs export
# ======================================================================
class TestEnvelope:
    def test_versioned_leads_with_v_and_does_not_mutate(self):
        payload = {"op": "ping"}
        wrapped = versioned(payload)
        assert list(wrapped)[0] == "v"
        assert wrapped["v"] == SCHEMA_VERSION == 1
        assert "v" not in payload

    def test_check_version_rejects_bad_shapes(self):
        with pytest.raises(ProtocolError):
            check_version(["not", "a", "dict"], where="test")
        with pytest.raises(ProtocolError):
            check_version({"op": "ping"}, where="test")
        with pytest.raises(ProtocolError):
            check_version({"v": 2, "op": "ping"}, where="test")
        assert check_version(versioned({"op": "ping"}), where="test")[
            "op"
        ] == "ping"

    def test_execution_result_to_dict_is_versioned(self):
        service_file = PartitionedFile(
            __import__("repro.api", fromlist=["make_method"]).make_method(
                "fx", fields=FIELDS, devices=DEVICES
            )
        )
        service_file.insert((1, 2))
        result = QueryExecutor(service_file).execute(
            service_file.query({0: 1})
        )
        assert result.to_dict()["v"] == SCHEMA_VERSION

    def test_service_result_to_dict_is_versioned(self):
        service = make_service("fx", fields=FIELDS, devices=DEVICES)
        service.insert((1, 2))
        data = service.execute(service.file.query({0: 1})).to_dict()
        assert data["v"] == SCHEMA_VERSION
        assert "submit_version" in data

    def test_obs_export_records_are_versioned(self):
        with obs.trace_span("test.span", k=1):
            pass
        records = obs.telemetry().export_records()
        assert records
        assert all(record["v"] == SCHEMA_VERSION for record in records)
        assert records[-1]["type"] == "metrics"

    def test_wire_frames_are_versioned(self):
        request = protocol.request("ping", request_id=1)
        assert request["v"] == SCHEMA_VERSION
        assert protocol.ok_response(1, {})["v"] == SCHEMA_VERSION
        assert (
            protocol.error_response(1, "busy", "x")["v"] == SCHEMA_VERSION
        )

    def test_error_response_rejects_unknown_codes(self):
        with pytest.raises(ProtocolError):
            protocol.error_response(1, "nonsense", "x")

    def test_result_frame_bytes_match_a_list_copy_of_the_records(self):
        """Records ride the wire as they are; the frame is byte for byte
        the one a list copy of every record encodes to."""
        records = [
            (1, 2, 3),
            ("blue", "green"),
            (7, ("nested", (1, 2)), "x"),
            (),
        ]
        result = ServiceResult(
            status="ok",
            query=PartialMatchQuery.full_scan(FileSystem.of(4, 4, m=4)),
            records=records,
            write_version=5,
            submit_version=4,
        )
        copied = result.to_dict()
        copied["record_values"] = [list(record) for record in records]
        frame = protocol.encode_frame(
            protocol.ok_response(9, protocol.result_payload(result))
        )
        assert frame == protocol.encode_frame(protocol.ok_response(9, copied))
        assert json.loads(frame[4:])["result"]["record_values"][2] == [
            7, ["nested", [1, 2]], "x"
        ]


# ======================================================================
# Server operations over real sockets
# ======================================================================
class TestServerOps:
    def test_ping_and_stats(self, gateway_factory):
        __, address = gateway_factory()
        with GatewayClient(*address, tenant="alpha") as client:
            assert client.ping() is True
            stats = client.stats()
            assert stats["tenant"] == "alpha"
            assert stats["started"] is False  # lazy: no query served yet
            assert stats["write_version"] == 0
            client.insert((1, 2))
            stats = client.stats()
            assert stats["started"] is True
            assert stats["write_version"] == 1

    def test_query_matches_direct_service(self, gateway_factory):
        __, address = gateway_factory()
        records = [(i % 4, (i * 3) % 4) for i in range(12)]
        reference = make_service("fx", fields=FIELDS, devices=DEVICES)
        with GatewayClient(
            *address, tenant="alpha", fields=FIELDS, devices=DEVICES
        ) as client:
            for record in records:
                wire_bucket, wire_version = client.insert(record)
                ref_bucket, ref_version = reference.insert(record)
                assert wire_bucket == ref_bucket
                assert wire_version == ref_version
            for specified in ({0: 1}, {1: 2}, {0: 3, 1: 0}):
                result = client.query(specified)
                # The wire speaks hashed bucket coordinates — the
                # from_dict space — so compare against the same query.
                expected = reference.execute(
                    PartialMatchQuery.from_dict(
                        reference.file.filesystem, specified
                    )
                )
                assert result.status == "ok"
                assert sorted(result.records) == sorted(expected.records)
                assert result.write_version == expected.write_version

    def test_batch(self, gateway_factory):
        __, address = gateway_factory()
        with GatewayClient(
            *address, tenant="alpha", fields=FIELDS, devices=DEVICES
        ) as client:
            for i in range(8):
                client.insert((i % 4, i % 4))
            results = client.batch([{0: 1}, {1: 3}, {0: 0, 1: 0}])
            assert [r.status for r in results] == ["ok", "ok", "ok"]

    def test_unknown_tenant(self, gateway_factory):
        __, address = gateway_factory()
        with GatewayClient(*address, tenant="nobody") as client:
            with pytest.raises(GatewayRequestError) as excinfo:
                client.query({0: 1})
            assert excinfo.value.code == "unknown_tenant"
        assert _counters().get("gateway.unknown_tenant") == 1

    def test_unknown_op(self, gateway_factory):
        __, address = gateway_factory()
        with GatewayClient(*address, tenant="alpha") as client:
            with pytest.raises(GatewayRequestError) as excinfo:
                client.call(protocol.request("warp", tenant="alpha"))
            assert excinfo.value.code == "unknown_op"

    def test_wrong_envelope_version_gets_bad_version(self, gateway_factory):
        __, address = gateway_factory()
        with socket.create_connection(address, timeout=5) as sock:
            sock.sendall(
                encode_frame({"v": 99, "id": 1, "op": "ping"})
            )
            response = recv_frame(sock)
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_version"

    def test_missing_op_gets_bad_request(self, gateway_factory):
        __, address = gateway_factory()
        with socket.create_connection(address, timeout=5) as sock:
            sock.sendall(encode_frame(versioned({"id": 1})))
            response = recv_frame(sock)
        assert response["error"]["code"] == "bad_request"

    def test_garbage_frame_gets_bad_frame_and_close(self, gateway_factory):
        __, address = gateway_factory()
        with socket.create_connection(address, timeout=5) as sock:
            sock.sendall(struct.pack(">I", 4) + b"}}{{")
            response = recv_frame(sock)
            assert response["error"]["code"] == "bad_frame"
            # The stream is poisoned: the server closes the connection.
            assert sock.recv(1) == b""

    def test_oversized_client_frame_rejected_bounded(self, gateway_factory):
        __, address = gateway_factory(max_frame_bytes=256)
        with socket.create_connection(address, timeout=5) as sock:
            sock.sendall(struct.pack(">I", 1 << 30))
            response = recv_frame(sock)
            assert response["error"]["code"] == "bad_frame"
            assert sock.recv(1) == b""
        assert _counters().get("gateway.oversized_frames") == 1

    def test_query_against_wrong_domain_is_bad_request(self, gateway_factory):
        __, address = gateway_factory()
        with GatewayClient(*address, tenant="alpha") as client:
            with pytest.raises(GatewayRequestError) as excinfo:
                client.query({0: 999})
            assert excinfo.value.code == "bad_request"

    @pytest.mark.parametrize(
        "deadline",
        ["abc", [1], -5, 0, True, float("nan"), float("inf")],
        ids=repr,
    )
    def test_malformed_deadline_is_bad_request(
        self, gateway_factory, deadline
    ):
        __, address = gateway_factory(["alpha"])
        with GatewayClient(
            *address, tenant="alpha", fields=FIELDS, devices=DEVICES
        ) as client:
            bucket, __ = client.insert((1, 2))
            specified = {0: bucket[0]}
            with pytest.raises(GatewayRequestError) as excinfo:
                client.query(specified, deadline_ms=deadline)
            assert excinfo.value.code == "bad_request"
            with pytest.raises(GatewayRequestError) as excinfo:
                client.batch([specified], deadline_ms=deadline)
            assert excinfo.value.code == "bad_request"
            result = client.query(specified, deadline_ms=50)
            assert result.status == "ok"
            assert result.records == [(1, 2)]

    def test_per_request_span_and_counters(self, gateway_factory):
        __, address = gateway_factory()
        with GatewayClient(*address, tenant="alpha") as client:
            client.insert((1, 1))
            client.query({0: 1})
        counters = _counters()
        assert counters.get("gateway.accepted") == 2
        assert counters.get("gateway.requests") == 2
        histograms = obs.telemetry().metrics.snapshot().histograms
        assert "gateway.latency_ms{tenant=alpha}" in histograms
        spans = [
            record
            for record in obs.telemetry().export_records()
            if record.get("name") == "gateway.request"
        ]
        assert len(spans) == 2


# ======================================================================
# Tenant gate: quotas, rate limits, inflight caps
# ======================================================================
class TestTenantGate:
    def test_quota_sheds_exactly_the_excess(self, gateway_factory):
        quota, excess = 6, 3
        __, address = gateway_factory(
            tenants={"alpha": {"request_quota": quota}, "beta": {}},
        )
        shed = 0
        with GatewayClient(*address, tenant="alpha") as client:
            for __i in range(quota + excess):
                try:
                    client.insert((1, 1))
                except GatewayRequestError as error:
                    assert error.code == "shed"
                    shed += 1
        assert shed == excess
        counters = _counters()
        assert counters.get("gateway.shed") == excess
        assert counters.get("gateway.shed{tenant=alpha}") == excess
        assert counters.get("gateway.accepted") == quota

    def test_quota_does_not_leak_across_tenants(self, gateway_factory):
        __, address = gateway_factory(
            tenants={"alpha": {"request_quota": 1}, "beta": {}},
        )
        with GatewayClient(*address, tenant="beta") as client:
            for __i in range(5):
                client.insert((1, 1))
        assert _counters().get("gateway.shed") is None

    def test_zero_rate_bucket_allows_exactly_the_burst(self, gateway_factory):
        burst = 4
        __, address = gateway_factory(
            tenants={"alpha": {"rate_per_s": 0.0, "burst": burst}},
        )
        limited = 0
        with GatewayClient(*address, tenant="alpha") as client:
            for __i in range(burst + 3):
                try:
                    client.insert((1, 1))
                except GatewayRequestError as error:
                    assert error.code == "rate_limited"
                    limited += 1
        assert limited == 3
        assert _counters().get("gateway.rate_limited") == 3

    def test_token_bucket_refills_continuously(self):
        clock = [0.0]
        bucket = TokenBucket(rate_per_s=2.0, burst=2, clock=lambda: clock[0])
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()
        clock[0] = 0.5  # 1 token refilled
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_max_inflight_sheds_concurrent_excess(self, gateway_factory):
        gateway, address = gateway_factory(
            tenants={"alpha": {"max_inflight": 1}},
        )
        tenant = gateway.tenants["alpha"]
        service = tenant.service
        gate = threading.Event()
        lookup = service.cache.lookup

        def slow_lookup(query):
            gate.wait(timeout=10)
            return lookup(query)

        service.cache.lookup = slow_lookup
        first = GatewayClient(*address, tenant="alpha",
                              fields=FIELDS, devices=DEVICES)
        error_codes: list[str] = []
        try:
            blocked = threading.Thread(
                target=lambda: first.query({0: 1}), daemon=True
            )
            blocked.start()
            deadline = time.time() + 5
            while tenant.inflight < 1 and time.time() < deadline:
                time.sleep(0.01)
            assert tenant.inflight == 1
            with GatewayClient(*address, tenant="alpha") as second:
                try:
                    second.insert((1, 1))
                except GatewayRequestError as error:
                    error_codes.append(error.code)
            gate.set()
            blocked.join(timeout=10)
        finally:
            gate.set()
            first.close()
        assert error_codes == ["shed"]

    def test_tenant_spec_validation(self):
        with pytest.raises(ConfigurationError):
            TenantSpec.of("", fields=FIELDS, devices=DEVICES)
        with pytest.raises(ConfigurationError):
            TenantSpec.of("a", fields=FIELDS, devices=DEVICES, burst=0)
        with pytest.raises(ConfigurationError):
            TenantSpec.of("a", fields=FIELDS, devices=DEVICES,
                          request_quota=-1)


# ======================================================================
# Disconnects, backpressure and graceful drain
# ======================================================================
class TestLifecycle:
    def _gate_fetch(self, service):
        """Block the service's cache lookup until the event is set."""
        gate = threading.Event()
        lookup = service.cache.lookup

        def slow_lookup(query):
            gate.wait(timeout=10)
            return lookup(query)

        service.cache.lookup = slow_lookup
        return gate

    def test_busy_reject_beyond_max_connections(self, gateway_factory):
        __, address = gateway_factory(max_connections=1)
        first = GatewayClient(*address, tenant="alpha")
        try:
            assert first.ping()
            with socket.create_connection(address, timeout=5) as sock:
                response = recv_frame(sock)
                assert response["error"]["code"] == "busy"
        finally:
            first.close()
        assert _counters().get("gateway.busy_rejected") == 1

    def test_disconnect_midflight_leader_still_serves_followers(
        self, gateway_factory
    ):
        gateway, address = gateway_factory(tenants=("alpha",))
        tenant = gateway.tenants["alpha"]
        with GatewayClient(*address, tenant="alpha") as seeder:
            bucket, __v = seeder.insert((1, 2))
        gate = self._gate_fetch(tenant.service)

        specified = {0: bucket[0]}
        leader = socket.create_connection(address, timeout=5)
        leader.sendall(
            encode_frame(
                protocol.request(
                    "query",
                    request_id=1,
                    tenant="alpha",
                    specified={str(k): v for k, v in specified.items()},
                )
            )
        )
        deadline = time.time() + 5
        while tenant.inflight < 1 and time.time() < deadline:
            time.sleep(0.01)
        assert tenant.inflight == 1

        follower = GatewayClient(
            *address, tenant="alpha", fields=FIELDS, devices=DEVICES
        )
        follower_result: list = []
        follower_thread = threading.Thread(
            target=lambda: follower_result.append(follower.query(specified)),
            daemon=True,
        )
        follower_thread.start()
        deadline = time.time() + 5
        while tenant.inflight < 2 and time.time() < deadline:
            time.sleep(0.01)

        # RST the leader's connection while its request is in flight.
        leader.setsockopt(
            socket.SOL_SOCKET,
            socket.SO_LINGER,
            struct.pack("ii", 1, 0),
        )
        leader.close()
        gate.set()
        follower_thread.join(timeout=10)
        follower.close()

        assert follower_result and follower_result[0].status == "ok"
        assert sorted(follower_result[0].records) == [(1, 2)]
        deadline = time.time() + 5
        while not _counters().get("gateway.disconnected") and (
            time.time() < deadline
        ):
            time.sleep(0.01)
        assert _counters().get("gateway.disconnected", 0) >= 1

    def test_graceful_drain_finishes_inflight_requests(self, gateway_factory):
        gateway, address = gateway_factory(tenants=("alpha",))
        tenant = gateway.tenants["alpha"]
        with GatewayClient(*address, tenant="alpha") as seeder:
            bucket, __v = seeder.insert((2, 3))
        gate = self._gate_fetch(tenant.service)

        client = GatewayClient(
            *address, tenant="alpha", fields=FIELDS, devices=DEVICES
        )
        results: list = []
        request_thread = threading.Thread(
            target=lambda: results.append(client.query({0: bucket[0]})),
            daemon=True,
        )
        request_thread.start()
        deadline = time.time() + 5
        while tenant.inflight < 1 and time.time() < deadline:
            time.sleep(0.01)
        assert tenant.inflight == 1

        drain_outcome: list[bool] = []
        drain_thread = threading.Thread(
            target=lambda: drain_outcome.append(gateway.drain(timeout_s=10)),
            daemon=True,
        )
        drain_thread.start()
        time.sleep(0.2)  # drain is now waiting on the in-flight worker
        gate.set()
        drain_thread.join(timeout=15)
        request_thread.join(timeout=10)
        client.close()

        # The accepted in-flight request was answered, the drain was clean,
        # and new connections are refused afterwards.
        assert results and results[0].status == "ok"
        assert sorted(results[0].records) == [(2, 3)]
        assert drain_outcome == [True]
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=1)
        assert _counters().get("gateway.drains") == 1

    def test_drain_retires_tenant_services(self, gateway_factory):
        gateway, address = gateway_factory(tenants=("alpha",))
        with GatewayClient(*address, tenant="alpha") as client:
            client.insert((1, 1))
        service = gateway.tenants["alpha"].service
        assert gateway.drain() is True
        with pytest.raises(RuntimeError):
            service.submit(service.file.query({0: 1}))

    def test_context_manager_starts_and_closes(self):
        gateway = make_gateway(["solo"], fields=FIELDS, devices=DEVICES)
        with gateway as gw:
            with GatewayClient(*gw.address, tenant="solo") as client:
                assert client.ping()
        with pytest.raises(OSError):
            socket.create_connection(gateway.address, timeout=1)


# ======================================================================
# Loopback multi-tenant load + staleness verification
# ======================================================================
class TestLoopbackLoad:
    def test_connection_ops_are_deterministic(self):
        fs = FileSystem.of(*FIELDS, m=DEVICES)
        spec = LoadSpec(write_every=3, batch_every=5)
        first = op_log(fs, spec, 0, "alpha")
        second = op_log(fs, spec, 0, "alpha")
        assert first == second
        # Different tenants and connections get different streams.
        assert first != op_log(fs, spec, 0, "beta")
        assert first != op_log(fs, spec, 1, "alpha")

    def test_multi_tenant_load_has_zero_stale_reads(self, gateway_factory):
        gateway, address = gateway_factory(tenants=("alpha", "beta"))
        spec = LoadSpec(
            clients=4,  # 2 tenants x 4 = 8 concurrent conns
            requests_per_client=15,
            write_every=3,
            batch_every=7,
            preload=8,
            hot_fraction=0.3,
        )
        report = run_loopback_load(
            address, list(gateway.tenants.values()), spec
        )
        assert not report.errors
        assert report.completed > 0
        assert set(report.per_tenant) == {"alpha", "beta"}
        mismatches = report.verify()
        assert all(not bad for bad in mismatches.values()), mismatches
        assert gateway.drain() is True
        data = report.to_dict()
        assert data["v"] == 1
        assert set(data["tenants"]) == {"alpha", "beta"}

    def test_quota_sheds_match_counters_under_load(self, gateway_factory):
        spec = LoadSpec(clients=2, requests_per_client=6, preload=2)
        total = spec.preload + spec.clients * spec.requests_per_client
        excess = 4
        gateway, address = gateway_factory(
            tenants={
                "alpha": {"request_quota": total - excess},
                "beta": {},
            },
        )
        report = run_loopback_load(
            address, list(gateway.tenants.values()), spec
        )
        assert not report.errors
        assert sum(report.rejections["alpha"].values()) == excess
        assert report.rejections["alpha"].get("shed") == excess
        assert not any(report.rejections.get("beta", {}).values())
        counters = _counters()
        assert counters.get("gateway.shed") == excess
        assert counters.get("gateway.shed{tenant=alpha}") == excess
        # Every non-shed request was admitted and served.
        assert counters.get("gateway.accepted") == 2 * total - excess
        assert all(not bad for bad in report.verify().values())

    def test_refuses_tenants_with_existing_writes(self, gateway_factory):
        """verify() replays from write version 1, so a tenant written to
        outside the load run would make the proof vacuously fail — the
        harness refuses it up front instead."""
        gateway, address = gateway_factory(tenants=("alpha", "beta"))
        with GatewayClient(*address, tenant="alpha") as client:
            client.insert((1, 2))
        with pytest.raises(ConfigurationError, match="write_version"):
            run_loopback_load(
                address,
                list(gateway.tenants.values()),
                LoadSpec(clients=1, requests_per_client=1),
            )


# ======================================================================
# The service's futures surface (inline, already-done futures)
# ======================================================================
class TestFuturesSurface:
    def test_submit_returns_future_matching_execute(self):
        service = make_service("fx", fields=FIELDS, devices=DEVICES)
        service.insert((1, 2))
        query = service.file.query({0: 1})
        future = service.submit(query)
        result = future.result(timeout=10)
        assert result.status == "ok"
        assert sorted(result.records) == sorted(
            service.execute(query).records
        )

    def test_submit_many_and_submit_insert(self):
        service = make_service("fx", fields=FIELDS, devices=DEVICES)
        bucket, version = service.submit_insert((3, 3)).result(timeout=10)
        assert version == 1
        queries = [service.file.query({0: 3}), service.file.query({1: 3})]
        results = service.submit_many(queries).result(timeout=10)
        assert [r.status for r in results] == ["ok", "ok"]
        assert all((3, 3) in r.records for r in results)

    def test_shutdown_retires_the_pool(self):
        service = make_service("fx", fields=FIELDS, devices=DEVICES)
        service.submit_insert((1, 1)).result(timeout=10)
        service.shutdown()
        with pytest.raises(RuntimeError):
            service.submit(service.file.query({0: 1}))
        with pytest.raises(RuntimeError):
            service.submit_insert((2, 2))
        # The blocking path still works: execute() runs inline.
        assert service.execute(service.file.query({0: 1})).status == "ok"

    def test_submits_run_inline_and_return_done_futures(self, monkeypatch):
        service = make_service("fx", fields=FIELDS, devices=DEVICES)
        caller = threading.current_thread()
        ran_on = []
        for name in ("execute", "execute_many", "insert"):
            blocking = getattr(service, name)

            def recording(*args, _blocking=blocking, **kwargs):
                ran_on.append(threading.current_thread())
                return _blocking(*args, **kwargs)

            monkeypatch.setattr(service, name, recording)
        query = service.file.query({0: 1})
        futures = [
            service.submit_insert((1, 2)),
            service.submit(query),
            service.submit_many([query]),
        ]
        assert ran_on == [caller] * 3
        assert all(future.done() for future in futures)
        assert futures[1].result().records == [(1, 2)]

        def failing(*args, **kwargs):
            raise ReproError("device lost")

        monkeypatch.setattr(service, "execute", failing)
        future = service.submit(query)
        assert future.done()
        assert isinstance(future.exception(), ReproError)


# ======================================================================
# The make_gateway facade
# ======================================================================
class TestMakeGateway:
    def test_accepts_names_mapping_and_specs(self):
        by_names = make_gateway(["a", "b"], fields=FIELDS, devices=DEVICES)
        assert sorted(by_names.tenants) == ["a", "b"]
        by_mapping = make_gateway(
            {"a": {"request_quota": 5}, "b": {}},
            fields=FIELDS,
            devices=DEVICES,
        )
        assert by_mapping.tenants["a"].spec.request_quota == 5
        spec = TenantSpec.of("solo", fields=FIELDS, devices=DEVICES)
        by_spec = make_gateway([spec])
        assert by_spec.tenants["solo"].spec is spec

    def test_per_tenant_overrides_beat_defaults(self):
        gateway = make_gateway(
            {"big": {"fields": (8, 8), "devices": 8}, "small": {}},
            fields=FIELDS,
            devices=DEVICES,
        )
        assert gateway.tenants["big"].spec.fields == (8, 8)
        assert gateway.tenants["small"].spec.fields == FIELDS

    def test_service_options_flow_to_tenant_services(self):
        gateway = make_gateway(
            ["a"], fields=FIELDS, devices=DEVICES, max_concurrent=3,
            cache_capacity=16,
        )
        service = gateway.tenants["a"].service
        assert service.config.max_concurrent == 3
        assert service.cache.capacity == 16

    def test_rejects_unknown_service_options(self):
        with pytest.raises(ConfigurationError):
            make_gateway(
                ["a"], fields=FIELDS, devices=DEVICES, warp_speed=9
            )

    def test_rejects_bad_service_defaults_eagerly(self):
        """Tenant services build lazily, but a bad serving knob must fail
        at make_gateway time, not as per-request wire errors later."""
        with pytest.raises(ConfigurationError, match="'a'.*max_concurrent"):
            make_gateway(
                ["a"], fields=FIELDS, devices=DEVICES, max_concurrent=0
            )
        with pytest.raises(ConfigurationError, match="'bad'.*queue_limit"):
            make_gateway(
                {
                    "ok": {},
                    "bad": {"service": {"queue_limit": -1}},
                },
                fields=FIELDS,
                devices=DEVICES,
            )

    @pytest.mark.parametrize("method", ["nope", "replicated"])
    def test_rejects_unservable_methods_eagerly(self, method):
        """An unknown name, or one that builds no distribution method,
        fails the build instead of bouncing every request."""
        with pytest.raises(ConfigurationError, match=f"'b'.*{method}"):
            make_gateway(
                {"a": {}, "b": {"method": method}},
                fields=FIELDS,
                devices=DEVICES,
            )

    def test_rejects_zero_cache_capacity_eagerly(self):
        with pytest.raises(ConfigurationError, match="'c'.*cache_capacity"):
            make_gateway(
                {"ok": {}, "c": {"service": {"cache_capacity": 0}}},
                fields=FIELDS,
                devices=DEVICES,
            )
        # None is not a capacity: every service has a cache.
        with pytest.raises(ConfigurationError, match="'a'.*cache_capacity"):
            make_gateway(
                {"a": {"service": {"cache_capacity": None}}},
                fields=FIELDS,
                devices=DEVICES,
            )

    def test_requires_fields_and_devices(self):
        with pytest.raises(ConfigurationError):
            make_gateway(["a"])

    def test_rejects_bad_tenant_entries(self):
        with pytest.raises(ConfigurationError):
            make_gateway([42], fields=FIELDS, devices=DEVICES)

    def test_start_true_binds(self):
        gateway = make_gateway(
            ["a"], fields=FIELDS, devices=DEVICES, start=True
        )
        try:
            host, port = gateway.address
            assert port > 0
        finally:
            gateway.close()

    def test_gateway_config_validation(self):
        with pytest.raises(ConfigurationError):
            GatewayConfig(max_connections=0)
        with pytest.raises(ConfigurationError):
            GatewayConfig(drain_timeout_s=0)
        with pytest.raises(ConfigurationError):
            Gateway([])

    def test_gateway_config_rejects_out_of_range_port(self):
        for port in (-1, 65536, 70000):
            with pytest.raises(ConfigurationError, match="port"):
                GatewayConfig(port=port)
        assert GatewayConfig(port=65535).port == 65535


# ======================================================================
# CLI exit semantics
# ======================================================================
class TestCli:
    def test_serve_fails_on_shed_with_structured_error(
        self, monkeypatch, capsys
    ):
        from repro.service import loadgen

        def fake_run(self):
            fs = self.service.file.filesystem
            query = PartialMatchQuery.from_dict(fs, {0: 1})
            shed = ServiceResult(
                status="shed", query=query, records=[],
                write_version=-1, submit_version=0,
            )
            return LoadReport(
                spec=self.spec,
                wall_s=0.01,
                requests=[RequestRecord(0, 0, query, shed, 1.0)],
            )

        monkeypatch.setattr(loadgen.LoadGenerator, "run", fake_run)
        rc = main(
            ["serve", "--fields", "4,4", "--devices", "4",
             "--clients", "1", "--requests", "1", "--json"]
        )
        captured = capsys.readouterr()
        assert rc == 1
        error = json.loads(captured.err)
        assert error["v"] == 1
        assert error["error"]["code"] == "degraded_load"
        assert error["error"]["shed"] == 1

    def test_serve_allow_degraded_tolerates_shed(self, monkeypatch, capsys):
        from repro.service import loadgen

        def fake_run(self):
            fs = self.service.file.filesystem
            query = PartialMatchQuery.from_dict(fs, {0: 1})
            shed = ServiceResult(
                status="shed", query=query, records=[],
                write_version=-1, submit_version=0,
            )
            return LoadReport(
                spec=self.spec,
                wall_s=0.01,
                requests=[RequestRecord(0, 0, query, shed, 1.0)],
            )

        monkeypatch.setattr(loadgen.LoadGenerator, "run", fake_run)
        rc = main(
            ["serve", "--fields", "4,4", "--devices", "4",
             "--clients", "1", "--requests", "1", "--json",
             "--allow-degraded"]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""

    def test_serve_clean_run_exits_zero(self, capsys):
        rc = main(
            ["serve", "--fields", "4,4", "--devices", "4",
             "--clients", "2", "--requests", "5", "--verify", "--json"]
        )
        captured = capsys.readouterr()
        assert rc == 0
        data = json.loads(captured.out)
        assert data["shed"] == 0 and data["timeout"] == 0

    def test_serve_and_gateway_keep_their_own_defaults(self):
        """The two commands share one set of serving options but differ in
        two defaults; neither command's default may leak into the other."""
        from repro.cli import build_parser

        parser = build_parser()
        size = ["--fields", "4,4", "--devices", "4"]
        serve = parser.parse_args(["serve", *size])
        gateway = parser.parse_args(["gateway", *size])
        assert (serve.requests, serve.write_every) == (50, 0)
        assert (gateway.requests, gateway.write_every) == (25, 5)
        for args in (serve, gateway):
            assert (args.method, args.seed, args.p) == ("fx", 0, 0.5)
            assert (args.max_concurrent, args.queue_limit) == (8, 32)
            assert (args.deadline, args.cache_capacity) == (None, 64)

    @pytest.mark.parametrize(
        "flag", [["--no-cache"], ["--no-coalesce"], ["--retries", "2"]]
    )
    def test_removed_serving_flags_are_rejected(self, flag, capsys):
        for command in ("serve", "gateway"):
            with pytest.raises(SystemExit) as exit_info:
                main([command, "--fields", "4,4", "--devices", "4", *flag])
            assert exit_info.value.code == 2
            assert flag[0] in capsys.readouterr().err

    def test_gateway_cli_loopback_verifies(self, capsys):
        rc = main(
            ["gateway", "--fields", "4,4", "--devices", "4",
             "--tenants", "alpha,beta", "--connections", "2",
             "--requests", "5", "--preload", "2", "--verify", "--json"]
        )
        captured = capsys.readouterr()
        assert rc == 0
        data = json.loads(captured.out)
        assert data["v"] == 1
        assert data["clean_drain"] is True
        assert data["replay_mismatches"] == {}
        assert set(data["tenants"]) == {"alpha", "beta"}

    def test_gateway_cli_quota_rejections_counted(self, capsys):
        rc = main(
            ["gateway", "--fields", "4,4", "--devices", "4",
             "--tenants", "solo", "--connections", "1",
             "--requests", "4", "--preload", "0", "--quota", "2",
             "--write-every", "0", "--json"]
        )
        captured = capsys.readouterr()
        assert rc == 0  # quota sheds are expected behaviour, not failures
        data = json.loads(captured.out)
        assert data["rejections"]["solo"]["shed"] == 2

    def test_gateway_cli_fails_on_internal_errors(self, capsys, monkeypatch):
        """Only the tenant gate's shed and rate_limited replies are
        tolerated; a read that fails server-side fails the run."""
        from repro.service import QueryService

        def broken(self, *args, **kwargs):
            raise RuntimeError("storage exploded")

        monkeypatch.setattr(QueryService, "execute", broken)
        argv = ["gateway", "--fields", "4,4", "--devices", "4",
                "--tenants", "a", "--connections", "1", "--requests", "6",
                "--write-every", "3", "--preload", "2", "--verify"]
        rc = main([*argv, "--json"])
        captured = capsys.readouterr()
        assert json.loads(captured.out)["rejections"] == {"a": {"internal": 4}}
        assert rc == 1
        error = json.loads(captured.err)["error"]
        assert error["code"] == "gateway_load_failed"
        assert error["rejection_codes"] == ["internal"]
        # The table counts only the tenant gate's codes as quota / rate
        # rejections and gives every other code its own row.
        assert main(argv) == 1
        rows = dict(
            line.rsplit(None, 1)
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("rejected (")
        )
        assert rows == {"rejected (quota / rate)": "0",
                        "rejected (internal)": "4"}

    @pytest.mark.parametrize("command", ["serve", "gateway", "chaos"])
    def test_replica_scheme_method_rejected_at_parse_time(
        self, command, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--fields", "4,4", "--devices", "4",
                  "--method", "replicated"])
        assert exit_info.value.code == 2
        assert "--method" in capsys.readouterr().err
