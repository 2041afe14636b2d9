"""The multi-tenant TCP gateway: accept loop, workers, drain.

:class:`Gateway` puts a real socket front end on the serving tier.  The
shape is a threaded accept loop — one worker thread per connection, with
a bounded connection count — because the tier underneath
(:class:`~repro.service.frontend.QueryService`) is itself thread-based;
each worker serves its requests in its own thread through the service's
blocking calls (``execute`` / ``execute_many`` / ``insert``), so a single
connection pipelining a ``batch`` frame rides the engine's batch path
(:meth:`~repro.service.frontend.QueryService.execute_many`) unchanged.

Lifecycle:

* :meth:`Gateway.start` binds (``port=0`` picks a free loopback port) and
  returns the bound address,
* connections beyond ``max_connections`` receive a coded ``busy`` error
  frame and are closed — explicit backpressure, never an unbounded
  accept queue,
* :meth:`Gateway.drain` stops accepting, lets every worker finish the
  requests it has already read off the wire (in-flight coalesced leaders
  included — handling is synchronous in the worker, so a leader always
  resolves its flight before the socket closes), then closes sockets and
  retires the per-tenant services' futures surfaces.

Observability: every request runs under a ``gateway.request`` span that
*resumes the caller's trace* when the frame carries trace context (the
span parents under the client's ``trace``/``parent_span`` and is marked
``remote``), so one request tree crosses the wire; the service's own
spans open in the same thread, as plain children of ``gateway.request``.
Outcomes and latencies land in the ``gateway.*`` metric family with
per-tenant labels — ``gateway.ok{tenant=...}`` /
``gateway.shed{tenant=...}`` counters and
``gateway.latency_ms{tenant=...}`` histograms, each also rolled up into
the bare base series.  The ``{"op": "obs"}`` wire operation serves a
live snapshot of that registry plus the per-tenant SLO report
(:mod:`repro.obs.slo`).
"""

from __future__ import annotations

import socket
import threading
import time
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from repro.errors import (
    ConfigurationError,
    FrameTooLargeError,
    GatewayError,
    ProtocolError,
    ReproError,
)
from repro.gateway import protocol
from repro.gateway.tenant import ACCEPTED, Tenant, TenantSpec
from repro.obs import TraceContext, telemetry, trace_span
from repro.obs.slo import SloMonitor, SloPolicy

__all__ = ["GatewayConfig", "Gateway"]

#: How often blocked socket reads wake up to check the drain flag.
_POLL_S = 0.1


@dataclass(frozen=True)
class GatewayConfig:
    """Tuning knobs of one gateway front end."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Concurrent connections served; the next one is told ``busy``.
    max_connections: int = 32
    max_frame_bytes: int = protocol.DEFAULT_MAX_FRAME_BYTES
    accept_backlog: int = 64
    #: Upper bound :meth:`Gateway.drain` waits for workers to finish.
    drain_timeout_s: float = 10.0

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ConfigurationError(
                f"port must be in 0..65535, got {self.port}"
            )
        if self.max_connections < 1:
            raise ConfigurationError(
                f"max_connections must be >= 1, got {self.max_connections}"
            )
        if self.max_frame_bytes < 1:
            raise ConfigurationError(
                f"max_frame_bytes must be >= 1, got {self.max_frame_bytes}"
            )
        if self.drain_timeout_s <= 0:
            raise ConfigurationError(
                f"drain_timeout_s must be positive, got {self.drain_timeout_s}"
            )


class Gateway:
    """Threaded multi-tenant TCP server over per-tenant query services.

    *tenants* is any iterable of :class:`TenantSpec` (or a mapping of
    name to spec); *service_defaults* are gateway-wide
    :func:`repro.api.make_service` options each spec's own ``service``
    mapping overrides.
    """

    def __init__(
        self,
        tenants: Iterable[TenantSpec] | Mapping[str, TenantSpec],
        config: GatewayConfig | None = None,
        service_defaults: Mapping | None = None,
        slo_policy: SloPolicy | None = None,
        tenant_factory=None,
    ):
        specs = (
            list(tenants.values())
            if isinstance(tenants, Mapping)
            else list(tenants)
        )
        if not specs:
            raise ConfigurationError("a gateway needs at least one tenant")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate tenant names in {names}")
        self.config = config or GatewayConfig()
        # tenant_factory lets a supervisor hand each namespace a durable
        # WAL (see repro.chaos.supervisor.RestartableGateway); the default
        # builds plain in-memory tenants.
        if tenant_factory is None:
            tenant_factory = lambda spec: Tenant(spec, service_defaults)  # noqa: E731
        self.tenants: dict[str, Tenant] = {
            spec.name: tenant_factory(spec) for spec in specs
        }
        self._listener: socket.socket | None = None
        self._address: tuple[str, int] | None = None
        self._accept_thread: threading.Thread | None = None
        self._workers: set[threading.Thread] = set()
        self._conns: set[socket.socket] = set()
        self._state_lock = threading.Lock()
        self._draining = threading.Event()
        self._closed = threading.Event()
        #: Evaluates per-tenant error budgets for the ``obs`` wire op.
        self.slo = SloMonitor(policy=slo_policy)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Bind, listen and launch the accept loop; returns ``(host, port)``."""
        if self._listener is not None:
            raise GatewayError("gateway already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.config.host, self.config.port))
        listener.listen(self.config.accept_backlog)
        listener.settimeout(_POLL_S)
        self._listener = listener
        self._address = listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="gateway-accept", daemon=True
        )
        self._accept_thread.start()
        return self._address

    @property
    def address(self) -> tuple[str, int]:
        if self._address is None:
            raise GatewayError("gateway not started")
        return self._address

    @property
    def active_connections(self) -> int:
        with self._state_lock:
            return len(self._conns)

    def drain(self, timeout_s: float | None = None) -> bool:
        """Graceful shutdown: stop accepting, finish in-flight work, close.

        Every request a worker has already decoded is answered before its
        socket closes; coalesced leaders resolve their flights (handling
        is synchronous), so followers on other connections are never
        stranded.  Returns ``True`` when every worker finished inside the
        timeout; on ``False`` the stragglers' sockets are force-closed.
        """
        timeout_s = (
            self.config.drain_timeout_s if timeout_s is None else timeout_s
        )
        self._draining.set()
        deadline = time.perf_counter() + timeout_s
        if self._listener is not None:
            accept_thread = self._accept_thread
            if accept_thread is not None:
                accept_thread.join(timeout=max(0.1, timeout_s))
            try:
                self._listener.close()
            except OSError:
                pass
        clean = True
        with self._state_lock:
            workers = list(self._workers)
        for worker in workers:
            remaining = deadline - time.perf_counter()
            worker.join(timeout=max(0.0, remaining))
            if worker.is_alive():
                clean = False
        if not clean:
            with self._state_lock:
                stragglers = list(self._conns)
            for conn in stragglers:
                _close_quietly(conn)
            for worker in workers:
                worker.join(timeout=1.0)
        for tenant in self.tenants.values():
            tenant.shutdown()
        self._closed.set()
        telemetry().metrics.add("gateway.drains")
        return clean

    def close(self) -> None:
        """Drain with the configured timeout (idempotent)."""
        if not self._closed.is_set():
            self.drain()

    def abort(self) -> None:
        """Crash-stop: kill the listener and every connection *now*.

        No drain, no in-flight courtesy, no graceful service retirement —
        this is the supervisor's stand-in for ``kill -9``.  Anything not
        yet acknowledged is simply gone; recovery happens by rebuilding
        tenants from their write-ahead logs
        (:class:`repro.chaos.supervisor.RestartableGateway`).
        """
        if self._closed.is_set():
            return
        self._draining.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        accept_thread = self._accept_thread
        if accept_thread is not None:
            accept_thread.join(timeout=1.0)
        with self._state_lock:
            conns = list(self._conns)
            workers = list(self._workers)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            _close_quietly(conn)
        for worker in workers:
            worker.join(timeout=1.0)
        for tenant in self.tenants.values():
            tenant.shutdown()
        self._closed.set()
        telemetry().metrics.add("gateway.aborts")

    def __enter__(self) -> "Gateway":
        if self._listener is None:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Accept loop
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        metrics = telemetry().metrics
        listener = self._listener
        while not self._draining.is_set():
            try:
                conn, __ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            if self._draining.is_set():
                self._refuse(conn, "draining", "gateway is draining")
                continue
            with self._state_lock:
                if len(self._conns) >= self.config.max_connections:
                    full = True
                else:
                    full = False
                    self._conns.add(conn)
            if full:
                metrics.add("gateway.busy_rejected")
                self._refuse(
                    conn,
                    "busy",
                    f"connection limit {self.config.max_connections} reached",
                )
                continue
            metrics.add("gateway.connections")
            worker = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="gateway-conn",
                daemon=True,
            )
            with self._state_lock:
                self._workers.add(worker)
            worker.start()

    def _refuse(self, conn: socket.socket, code: str, message: str) -> None:
        try:
            conn.sendall(
                protocol.encode_frame(
                    protocol.error_response(None, code, message)
                )
            )
        except OSError:
            pass
        _close_quietly(conn)

    # ------------------------------------------------------------------
    # Per-connection worker
    # ------------------------------------------------------------------
    def _serve_connection(self, conn: socket.socket) -> None:
        metrics = telemetry().metrics
        decoder = protocol.FrameDecoder(self.config.max_frame_bytes)
        conn.settimeout(_POLL_S)
        try:
            while True:
                try:
                    data = conn.recv(65536)
                except socket.timeout:
                    if self._draining.is_set():
                        break
                    continue
                except OSError:
                    metrics.add("gateway.disconnected")
                    break
                if not data:
                    if decoder.buffered:
                        # EOF inside a frame: the peer vanished mid-request.
                        metrics.add("gateway.disconnected")
                    break
                try:
                    payloads = decoder.feed(data)
                except FrameTooLargeError as error:
                    metrics.add("gateway.oversized_frames")
                    self._send(
                        conn,
                        protocol.error_response(
                            None, "bad_frame", str(error)
                        ),
                    )
                    break
                except ProtocolError as error:
                    self._send(
                        conn,
                        protocol.error_response(
                            None, "bad_frame", str(error)
                        ),
                    )
                    break
                alive = True
                for payload in payloads:
                    # Every decoded request is answered, drain or not:
                    # these are the "accepted in-flight" requests graceful
                    # shutdown must not lose.
                    response = self._handle(payload)
                    if not self._send(conn, response):
                        alive = False
                        break
                if not alive or self._draining.is_set():
                    break
        finally:
            with self._state_lock:
                self._conns.discard(conn)
                self._workers.discard(threading.current_thread())
            _close_quietly(conn)

    def _send(self, conn: socket.socket, payload: dict) -> bool:
        try:
            conn.sendall(protocol.encode_frame(payload))
            return True
        except OSError:
            # The client went away while its request was in flight.  The
            # work itself already completed (leaders resolved their
            # flights before we got here), so followers are unaffected.
            telemetry().metrics.add("gateway.disconnected")
            return False

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def _handle(self, payload: dict) -> dict:
        metrics = telemetry().metrics
        metrics.add("gateway.requests")
        request_id = payload.get("id") if isinstance(payload, dict) else None
        started = time.perf_counter()
        tenant_name = (
            payload.get("tenant") if isinstance(payload, dict) else None
        )
        context = None
        if isinstance(payload, dict):
            try:
                stamped = protocol.parse_trace(payload)
            except ProtocolError as error:
                metrics.add("gateway.bad_request")
                return protocol.error_response(
                    request_id, "bad_request", str(error)
                )
            if stamped is not None:
                context = TraceContext(
                    trace_id=stamped[0],
                    span_id=stamped[1],
                    tenant=tenant_name if isinstance(tenant_name, str) else None,
                )
        with telemetry().tracer.activate(context), trace_span(
            "gateway.request",
            op=str(payload.get("op")) if isinstance(payload, dict) else "?",
            tenant=str(tenant_name),
        ) as span:
            try:
                data = protocol.check_request(payload)
            except ProtocolError as error:
                code = (
                    "bad_version"
                    if "envelope version" in str(error)
                    else "bad_request"
                )
                span.set_attr("status", code)
                metrics.add(f"gateway.{code}")
                return protocol.error_response(request_id, code, str(error))
            op = data["op"]
            if op == "ping":
                span.set_attr("status", "ok")
                return protocol.ok_response(request_id, {"pong": True})
            if op == "health":
                span.set_attr("status", "ok")
                return protocol.ok_response(
                    request_id, self.health_snapshot()
                )
            if op == "obs":
                span.set_attr("status", "ok")
                return protocol.ok_response(
                    request_id, self.observability_snapshot()
                )
            tenant = self.tenants.get(data.get("tenant"))
            if tenant is None:
                span.set_attr("status", "unknown_tenant")
                metrics.add("gateway.unknown_tenant")
                return protocol.error_response(
                    request_id,
                    "unknown_tenant",
                    f"no tenant {data.get('tenant')!r}; "
                    f"known: {sorted(self.tenants)}",
                )
            if op == "stats":
                span.set_attr("status", "ok")
                return protocol.ok_response(request_id, tenant.stats())
            if op not in ("query", "insert", "batch"):
                span.set_attr("status", "unknown_op")
                metrics.add("gateway.unknown_op")
                return protocol.error_response(
                    request_id, "unknown_op", f"unknown op {op!r}"
                )
            labels = {"tenant": tenant.spec.name}
            outcome = tenant.admit()
            if outcome != ACCEPTED:
                span.set_attr("status", outcome)
                metrics.add(f"gateway.{outcome}", labels=labels)
                return protocol.error_response(
                    request_id,
                    outcome,
                    f"tenant {tenant.spec.name!r} {outcome.replace('_', ' ')}",
                )
            metrics.add("gateway.accepted")
            try:
                result = self._dispatch(tenant, op, data)
                span.set_attr("status", "ok")
                self._count_outcomes(metrics, labels, op, result)
                return protocol.ok_response(request_id, result)
            except (ProtocolError, ReproError) as error:
                span.set_attr("status", "bad_request")
                metrics.add("gateway.bad_request")
                return protocol.error_response(
                    request_id, "bad_request", str(error)
                )
            except BaseException as error:  # pragma: no cover - safety net
                span.set_attr("status", "internal")
                metrics.add("gateway.internal_errors")
                return protocol.error_response(
                    request_id, "internal", f"{type(error).__name__}: {error}"
                )
            finally:
                tenant.release()
                latency_ms = (time.perf_counter() - started) * 1000.0
                metrics.observe("gateway.latency_ms", latency_ms, labels=labels)

    def observability_snapshot(self) -> dict:
        """The ``obs`` wire-op body: labeled metrics + per-tenant SLO."""
        report = self.slo.report()
        return {
            "metrics": telemetry().metrics.snapshot().to_dict(),
            "slo": report.to_dict(),
        }

    def health_snapshot(self) -> dict:
        """The ``health`` wire-op body: readiness plus tenant liveness.

        ``ready`` goes false the moment drain begins, so load balancers
        (and the chaos harness) can distinguish "up and serving" from
        "up but finishing in-flight work" without issuing a real query.
        """
        draining = self._draining.is_set()
        return {
            "ready": self._listener is not None and not draining,
            "draining": draining,
            "connections": self.active_connections,
            "tenants": {
                name: {
                    "started": tenant.started,
                    "recovered": tenant.recovered,
                }
                for name, tenant in sorted(self.tenants.items())
            },
        }

    @staticmethod
    def _count_outcomes(metrics, labels: dict, op: str, result: dict) -> None:
        """Tenant-labeled availability counters from a served dispatch.

        Service-level outcomes (a shed admission queue, a blown deadline)
        travel as *result statuses* inside an ``ok`` wire response, so
        they are tallied here — into the same ``gateway.<outcome>``
        family the tenant gate uses — for the SLO monitor to consume.
        """
        if op == "query":
            statuses = [result.get("status", "ok")]
        elif op == "batch":
            statuses = [
                entry.get("status", "ok")
                for entry in result.get("results", [])
            ]
        else:
            statuses = ["ok"]
        for status in statuses:
            metrics.add(f"gateway.{status}", labels=labels)

    def _dispatch(self, tenant: Tenant, op: str, data: dict) -> dict:
        """Run one admitted op on the tenant's service, in this thread.

        The connection thread that read the frame does the work itself
        through the service's blocking calls, so a request is served
        exactly where its ``gateway.request`` span is open.
        """
        service = tenant.service
        if op == "query":
            deadline_ms = protocol.parse_deadline(data)
            query = protocol.parse_query(service.file.filesystem, data)
            return protocol.result_payload(
                service.execute(query, deadline_ms=deadline_ms)
            )
        if op == "insert":
            record = data.get("record")
            if not isinstance(record, list):
                raise ProtocolError(
                    f"insert needs a 'record' array, got {record!r}"
                )
            idem = data.get("idem")
            if idem is not None and (
                not isinstance(idem, str) or not idem or len(idem) > 128
            ):
                raise ProtocolError(
                    "idempotency key must be a non-empty string of at "
                    f"most 128 chars, got {idem!r}"
                )
            bucket, version, deduped = tenant.insert_idempotent(
                tuple(record), idem
            )
            if deduped:
                telemetry().metrics.add(
                    "gateway.dedup_hits",
                    labels={"tenant": tenant.spec.name},
                )
                span = telemetry().tracer.current()
                if span is not None:
                    span.add_event("gateway.dedup_hit", idem=idem)
            return {
                "bucket": list(bucket),
                "write_version": version,
                "deduped": deduped,
            }
        # op == "batch"
        deadline_ms = protocol.parse_deadline(data)
        queries_raw = data.get("queries")
        if not isinstance(queries_raw, list) or not queries_raw:
            raise ProtocolError(
                "batch needs a non-empty 'queries' array"
            )
        queries = [
            protocol.parse_query(service.file.filesystem, body)
            for body in queries_raw
        ]
        results = service.execute_many(queries, deadline_ms=deadline_ms)
        return {
            "results": [
                protocol.result_payload(result) for result in results
            ]
        }


def _close_quietly(conn: socket.socket) -> None:
    try:
        conn.close()
    except OSError:
        pass
