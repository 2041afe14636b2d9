"""Blocking client for the gateway wire protocol.

One :class:`GatewayClient` is one TCP connection bound to one tenant.
It is deliberately minimal — the loopback load test, the benchmarks, the
CLI and external callers all speak through it, so it exercises exactly
the protocol a third-party client would implement.

>>> client = GatewayClient(host, port, tenant="alpha")   # doctest: +SKIP
>>> client.insert((1, 2))                                # doctest: +SKIP
>>> client.query({0: 1}).records                         # doctest: +SKIP
"""

from __future__ import annotations

import itertools
import os
import socket
import threading
from collections.abc import Mapping, Sequence

from repro.errors import (
    ConnectionLostError,
    GatewayError,
    GatewayTimeoutError,
    ProtocolError,
)
from repro.gateway import protocol
from repro.hashing.fields import FileSystem
from repro.query.partial_match import PartialMatchQuery
from repro.service.frontend import ServiceResult
from repro.util.numbers import mix64

__all__ = ["GatewayClient", "GatewayRequestError"]

#: Salt separating client-allocated trace ids from the tracer's stream.
_CLIENT_TRACE_SALT = 0xD1B54A32D192ED03


class GatewayRequestError(GatewayError):
    """The gateway answered with a coded error response."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"[{code}] {message}")


class GatewayClient:
    """One connection to the gateway, bound to one tenant namespace.

    *fields*/*devices* describe the tenant's file system so responses can
    be rebuilt into full :class:`ServiceResult` objects client-side; pass
    them whenever you want :meth:`query` / :meth:`batch` to return typed
    results (raw payload dicts come back otherwise).

    Every request is stamped with **trace context**: when the caller is
    inside a live span (or activated context), that position propagates;
    otherwise the client allocates a fresh 64-bit trace id per request
    from a seeded splitmix64 stream (*trace_seed*; defaults to a random
    per-client seed — pass an explicit seed for deterministic wire
    traces, as the loopback load test does).
    """

    def __init__(
        self,
        host: str,
        port: int,
        tenant: str | None = None,
        fields: Sequence[int] | None = None,
        devices: int | None = None,
        timeout_s: float = 30.0,
        max_frame_bytes: int = protocol.DEFAULT_MAX_FRAME_BYTES,
        trace_seed: int | None = None,
    ):
        self.tenant = tenant
        self.max_frame_bytes = max_frame_bytes
        self.filesystem = (
            FileSystem.of(*fields, m=devices)
            if fields is not None and devices is not None
            else None
        )
        self.trace_seed = (
            trace_seed
            if trace_seed is not None
            else int.from_bytes(os.urandom(8), "big")
        )
        self.timeout_s = timeout_s
        self._ids = itertools.count(1)
        self._traces = itertools.count(1)
        self._lock = threading.Lock()
        # The timeout sticks to the socket, so *every* later send/recv is
        # bounded — an unresponsive server surfaces as a typed
        # GatewayTimeoutError instead of an indefinite hang.
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=timeout_s
            )
        except socket.timeout as error:
            raise GatewayTimeoutError(
                f"connect to {host}:{port} timed out after {timeout_s}s"
            ) from error
        except OSError as error:
            raise ConnectionLostError(
                f"connect to {host}:{port} failed: {error}"
            ) from error

    # ------------------------------------------------------------------
    # Raw request/response
    # ------------------------------------------------------------------
    def call(self, payload: dict) -> dict:
        """Send one request payload; return the matched ``result`` object.

        Raises :class:`GatewayRequestError` on a coded error response,
        :class:`~repro.errors.ProtocolError` on a broken stream,
        :class:`~repro.errors.GatewayTimeoutError` when the socket
        deadline expires mid-operation, and
        :class:`~repro.errors.ConnectionLostError` when the transport
        drops — never a raw :mod:`socket` error.
        """
        try:
            with self._lock:
                self._sock.sendall(protocol.encode_frame(payload))
                response = protocol.recv_frame(self._sock, self.max_frame_bytes)
        except socket.timeout as error:
            raise GatewayTimeoutError(
                f"gateway did not answer within {self.timeout_s}s"
            ) from error
        except OSError as error:
            raise ConnectionLostError(
                f"connection to gateway lost: {error}"
            ) from error
        if response is None:
            raise ProtocolError("gateway closed the connection")
        data = protocol.check_version(response, where="response")
        if data.get("id") not in (None, payload.get("id")):
            raise ProtocolError(
                f"response id {data.get('id')!r} does not match request "
                f"id {payload.get('id')!r}"
            )
        if not data.get("ok"):
            error = data.get("error") or {}
            raise GatewayRequestError(
                str(error.get("code", "internal")),
                str(error.get("message", "")),
            )
        result = data.get("result")
        if not isinstance(result, dict):
            raise ProtocolError(f"response carries no result: {data!r}")
        return result

    def _request(self, op: str, **body) -> dict:
        return self.call(
            protocol.request(
                op,
                request_id=next(self._ids),
                tenant=self.tenant,
                **self._trace_context(),
                **body,
            )
        )

    def _trace_context(self) -> dict:
        """The trace fields to stamp into the next request.

        A live span (or activated remote context) in the calling thread
        wins — its position crosses the wire so the server's
        ``gateway.request`` continues the caller's trace.  Otherwise the
        request roots a fresh trace under a client-allocated id.
        """
        from repro.obs import telemetry

        context = telemetry().tracer.current_context()
        if context is not None:
            return protocol.trace_fields(context.trace_id, context.span_id)
        nth = next(self._traces)
        return protocol.trace_fields(
            mix64(self.trace_seed ^ (nth * _CLIENT_TRACE_SALT))
        )

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def ping(self) -> bool:
        return bool(self._request("ping").get("pong"))

    def health(self) -> dict:
        """Readiness/drain snapshot: ``{"ready": ..., "draining": ...}``
        plus per-tenant started/write_version state."""
        return self._request("health")

    def stats(self) -> dict:
        return self._request("stats")

    def obs(self) -> dict:
        """Live observability snapshot: labeled metrics + per-tenant SLO."""
        return self._request("obs")

    def insert(
        self, record: Sequence[object], idem: str | None = None
    ) -> tuple[tuple, int]:
        """Insert one record; returns ``(bucket, write_version)``.

        *idem* stamps a client-chosen idempotency key onto the write: the
        gateway dedupes retries of the same key within its per-tenant
        window and re-acknowledges the original ``(bucket, version)``
        instead of applying the record twice.
        """
        body: dict = {"record": list(record)}
        if idem is not None:
            body["idem"] = idem
        result = self._request("insert", **body)
        return tuple(result["bucket"]), int(result["write_version"])

    def query(
        self,
        specified: Mapping[int, int],
        deadline_ms: float | None = None,
    ) -> ServiceResult | dict:
        """Execute one partial match query over the wire.

        *specified* maps field index to **hashed bucket coordinate**
        (the :meth:`PartialMatchQuery.from_dict` space, shared verbatim
        with the server); hash raw attribute values first, e.g. with
        ``MultiKeyHash.default(filesystem).partial_bucket(...)``.
        """
        body: dict = {
            "specified": {str(k): v for k, v in specified.items()}
        }
        if deadline_ms is not None:
            body["deadline_ms"] = deadline_ms
        payload = self._request("query", **body)
        return self._typed(specified, payload)

    def batch(
        self,
        queries: Sequence[Mapping[int, int]],
        deadline_ms: float | None = None,
    ) -> list[ServiceResult] | list[dict]:
        """Execute many queries in one frame (one engine batch)."""
        body: dict = {
            "queries": [
                {"specified": {str(k): v for k, v in specified.items()}}
                for specified in queries
            ]
        }
        if deadline_ms is not None:
            body["deadline_ms"] = deadline_ms
        results = self._request("batch", **body).get("results", [])
        return [
            self._typed(specified, payload)
            for specified, payload in zip(queries, results)
        ]

    def _typed(self, specified: Mapping[int, int], payload: dict):
        if self.filesystem is None:
            return payload
        query = PartialMatchQuery.from_dict(self.filesystem, dict(specified))
        return protocol.result_from_payload(query, payload)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
