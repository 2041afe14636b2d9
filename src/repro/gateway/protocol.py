"""Length-framed JSON wire protocol of the network gateway.

A frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON.  Every payload sits under the process-wide versioned
envelope (:mod:`repro.envelope`): ``{"v": 1, ...}``.

Requests name an operation and (except ``ping``) a tenant::

    {"v": 1, "id": 7, "op": "query",  "tenant": "alpha", "specified": {"0": 3}}
    {"v": 1, "id": 8, "op": "insert", "tenant": "alpha", "record": [1, 2]}
    {"v": 1, "id": 9, "op": "batch",  "tenant": "alpha",
     "queries": [{"specified": {"0": 3}}, {"specified": {"1": 0}}]}
    {"v": 1, "id": 0, "op": "ping"}
    {"v": 1, "id": 1, "op": "stats",  "tenant": "alpha"}
    {"v": 1, "id": 2, "op": "obs"}
    {"v": 1, "id": 3, "op": "health"}

``health`` answers readiness/drain state without touching any tenant
service (a load-balancer probe); ``insert`` may carry an additive
``"idem": "<key>"`` field — a client-stamped idempotency key the
gateway dedupes in a bounded per-tenant window, so a retried write is
re-acknowledged at its original ``(bucket, write_version)`` instead of
being applied twice (the response then carries ``"deduped": true``).

``obs`` serves a live observability snapshot — the labeled metrics
registry plus the per-tenant SLO report (:mod:`repro.obs.slo`) — so a
client can watch error budgets over the same framed protocol it queries
through.

Requests may additionally carry **trace context**: an optional 64-bit
``trace`` id and optional ``parent_span`` id (:func:`trace_fields` /
:func:`parse_trace`).  The server resumes the trace around its
``gateway.request`` span, so one request tree spans both processes.
Both fields are additive — a ``{"v": 1}`` reader that ignores them
interprets the rest of the frame exactly as before, so the schema
version does not change.

Responses echo the request ``id`` and carry either a result or a coded
error::

    {"v": 1, "id": 7, "ok": true,  "result": {...}}
    {"v": 1, "id": 7, "ok": false,
     "error": {"code": "unknown_tenant", "message": "..."}}

Query results embed :meth:`~repro.service.frontend.ServiceResult.to_dict`
(the same versioned schema the ``--json`` CLI prints) augmented with the
record tuples themselves, so a remote client can rebuild a full
:class:`~repro.service.frontend.ServiceResult` and run the serial-replay
staleness verification without server cooperation.

:class:`FrameDecoder` is the incremental parser both ends use: it
tolerates arbitrarily torn frames (bytes arrive in any chunking) and
rejects oversized frames *from the header alone*
(:class:`~repro.errors.FrameTooLargeError`), before any body bytes are
buffered.
"""

from __future__ import annotations

import json
import math
import socket
import struct
from collections.abc import Mapping

from repro.envelope import SCHEMA_VERSION, check_version, versioned
from repro.errors import FrameTooLargeError, ProtocolError
from repro.hashing.fields import FileSystem
from repro.query.partial_match import PartialMatchQuery
from repro.service.frontend import ServiceResult

__all__ = [
    "HEADER",
    "DEFAULT_MAX_FRAME_BYTES",
    "ERROR_CODES",
    "FrameDecoder",
    "encode_frame",
    "recv_frame",
    "request",
    "trace_fields",
    "parse_trace",
    "parse_deadline",
    "ok_response",
    "error_response",
    "query_payload",
    "parse_query",
    "result_payload",
    "result_from_payload",
    "check_request",
    "WIRE_VERSION",
]

#: Frame header: one big-endian unsigned 32-bit body length.
HEADER = struct.Struct(">I")

#: Default per-frame cap (1 MiB) — generous for batches, small enough that
#: a hostile length prefix cannot balloon server memory.
DEFAULT_MAX_FRAME_BYTES = 1 << 20

#: The coded failures a response may carry.  ``shed`` / ``rate_limited``
#: are the per-tenant admission outcomes (quota or token bucket);
#: ``draining`` means the gateway is shutting down gracefully and the
#: connection will close after this response.
ERROR_CODES = frozenset(
    {
        "bad_frame",
        "bad_version",
        "bad_request",
        "unknown_op",
        "unknown_tenant",
        "shed",
        "rate_limited",
        "busy",
        "draining",
        "internal",
    }
)


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_frame(payload: Mapping) -> bytes:
    """Serialise one payload as a length-prefixed canonical JSON frame."""
    body = json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return HEADER.pack(len(body)) + body


class FrameDecoder:
    """Incremental frame parser with a bounded buffer.

    Feed it whatever bytes arrived; it returns every completed payload and
    keeps the torn remainder for the next feed.  The body length is
    checked against *max_frame_bytes* as soon as the 4 header bytes are
    available, so the decoder never buffers more than
    ``max_frame_bytes + len(remaining stream chunk)`` bytes.
    """

    def __init__(self, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES):
        if max_frame_bytes < 1:
            raise ProtocolError(
                f"max_frame_bytes must be >= 1, got {max_frame_bytes}"
            )
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()

    @property
    def buffered(self) -> int:
        """Bytes currently held for an incomplete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[dict]:
        """Absorb *data*; return the payloads of every completed frame.

        Raises :class:`~repro.errors.FrameTooLargeError` the moment a
        header declares a body beyond the cap and
        :class:`~repro.errors.ProtocolError` on undecodable JSON.  Either
        error poisons the stream — the connection should be closed.
        """
        self._buffer.extend(data)
        payloads: list[dict] = []
        while True:
            if len(self._buffer) < HEADER.size:
                return payloads
            (length,) = HEADER.unpack_from(self._buffer)
            if length > self.max_frame_bytes:
                raise FrameTooLargeError(length, self.max_frame_bytes)
            end = HEADER.size + length
            if len(self._buffer) < end:
                return payloads
            body = bytes(self._buffer[HEADER.size:end])
            del self._buffer[:end]
            try:
                payload = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise ProtocolError(f"undecodable frame body: {error}") from error
            if not isinstance(payload, dict):
                raise ProtocolError(
                    f"frame body is not a JSON object: {type(payload).__name__}"
                )
            payloads.append(payload)


def recv_frame(
    sock: socket.socket,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> dict | None:
    """Blocking read of exactly one frame; ``None`` on clean EOF.

    Client-side helper (the server uses :class:`FrameDecoder` on its recv
    loop).  EOF in the middle of a frame raises
    :class:`~repro.errors.ProtocolError`.
    """
    header = _recv_exact(sock, HEADER.size)
    if header is None:
        return None
    (length,) = HEADER.unpack(header)
    if length > max_frame_bytes:
        raise FrameTooLargeError(length, max_frame_bytes)
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("connection closed inside a frame body")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"undecodable frame body: {error}") from error
    if not isinstance(payload, dict):
        raise ProtocolError("frame body is not a JSON object")
    return payload


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    """Read exactly *count* bytes; ``None`` on EOF before the first byte."""
    chunks = bytearray()
    while len(chunks) < count:
        chunk = sock.recv(count - len(chunks))
        if not chunk:
            return None if not chunks else _torn()
        chunks.extend(chunk)
    return bytes(chunks)


def _torn():
    raise ProtocolError("connection closed inside a frame")


# ----------------------------------------------------------------------
# Envelopes
# ----------------------------------------------------------------------
def request(
    op: str,
    *,
    request_id: int = 0,
    tenant: str | None = None,
    **body: object,
) -> dict:
    """Build one versioned request payload."""
    payload: dict = {"id": request_id, "op": op}
    if tenant is not None:
        payload["tenant"] = tenant
    payload.update(body)
    return versioned(payload)


def trace_fields(
    trace_id: int | None = None, parent_span: int | None = None
) -> dict:
    """The optional trace-context fields of a request, as extra body kwargs.

    >>> trace_fields(7, 3)
    {'trace': 7, 'parent_span': 3}
    >>> trace_fields(None, None)
    {}
    """
    fields: dict = {}
    if trace_id is not None:
        fields["trace"] = int(trace_id)
        if parent_span is not None:
            fields["parent_span"] = int(parent_span)
    return fields


def parse_trace(data: Mapping) -> tuple[int, int | None] | None:
    """Extract ``(trace_id, parent_span)`` from a request, if stamped.

    Returns ``None`` for context-less requests (the backward-compatible
    pre-trace wire shape); raises :class:`~repro.errors.ProtocolError`
    when the fields are present but malformed.
    """
    trace = data.get("trace")
    if trace is None:
        return None
    if not isinstance(trace, int) or isinstance(trace, bool):
        raise ProtocolError(f"trace id must be an integer, got {trace!r}")
    parent = data.get("parent_span")
    if parent is not None and (
        not isinstance(parent, int) or isinstance(parent, bool)
    ):
        raise ProtocolError(
            f"parent_span must be an integer or absent, got {parent!r}"
        )
    return trace, parent


def parse_deadline(data: Mapping) -> float | None:
    """A request's optional ``deadline_ms``: ``None`` or a finite float > 0.

    The wire twin of :meth:`~repro.service.frontend.ServiceConfig.validate`'s
    deadline check; raises :class:`~repro.errors.ProtocolError` for a bool,
    a non-number, a value <= 0, NaN or infinity.

    >>> parse_deadline({"deadline_ms": 50})
    50.0
    >>> parse_deadline({}) is None
    True
    """
    deadline = data.get("deadline_ms")
    if deadline is None:
        return None
    if (
        not isinstance(deadline, (int, float))
        or isinstance(deadline, bool)
        or not math.isfinite(deadline)
        or deadline <= 0
    ):
        raise ProtocolError(
            f"deadline_ms must be a finite number > 0 or absent, "
            f"got {deadline!r}"
        )
    return float(deadline)


def ok_response(request_id, result: Mapping) -> dict:
    return versioned({"id": request_id, "ok": True, "result": dict(result)})


def error_response(request_id, code: str, message: str) -> dict:
    if code not in ERROR_CODES:
        raise ProtocolError(f"unknown error code {code!r}")
    return versioned(
        {
            "id": request_id,
            "ok": False,
            "error": {"code": code, "message": message},
        }
    )


# ----------------------------------------------------------------------
# Query / result marshalling
# ----------------------------------------------------------------------
def query_payload(query: PartialMatchQuery) -> dict:
    """Wire shape of one query: specified fields keyed by stringed index
    (JSON objects cannot key on integers).

    Values are *hashed bucket coordinates* — the same space
    :meth:`PartialMatchQuery.from_dict` takes — not raw attribute
    values.  A client holding raw values hashes them first (the default
    :class:`~repro.hashing.multikey.MultiKeyHash` is deterministic, so
    both ends agree), exactly like
    :meth:`~repro.storage.parallel_file.PartitionedFile.query` does
    server-side."""
    return {
        "specified": {
            str(index): value for index, value in query.specified_items()
        }
    }


def parse_query(filesystem: FileSystem, body: Mapping) -> PartialMatchQuery:
    """Rebuild a query from its wire shape, validating against *filesystem*.

    Raises :class:`~repro.errors.ProtocolError` on malformed shapes; field
    domain violations surface as the underlying
    :class:`~repro.errors.QueryError`.
    """
    specified = body.get("specified")
    if not isinstance(specified, Mapping):
        raise ProtocolError(
            f"query payload needs a 'specified' object, got {specified!r}"
        )
    parsed: dict[int, int] = {}
    for key, value in specified.items():
        try:
            index = int(key)
        except (TypeError, ValueError):
            raise ProtocolError(
                f"field index {key!r} is not an integer"
            ) from None
        if not isinstance(value, int) or isinstance(value, bool):
            raise ProtocolError(
                f"field {index} value {value!r} is not an integer"
            )
        parsed[index] = value
    return PartialMatchQuery.from_dict(filesystem, parsed)


def result_payload(result: ServiceResult) -> dict:
    """One served result on the wire: ``to_dict()`` plus the records.

    ``records`` (the count) keeps its :meth:`ServiceResult.to_dict`
    meaning; the tuples ride separately under ``record_values`` so the
    client can rebuild a verifiable :class:`ServiceResult`.  They go in
    as they are: :mod:`json` encodes a tuple as an array, so the frame's
    bytes are those of a list copy, without the copy.
    """
    payload = result.to_dict()
    payload["record_values"] = result.records
    return payload


def result_from_payload(
    query: PartialMatchQuery, payload: Mapping
) -> ServiceResult:
    """Client-side reconstruction of a :class:`ServiceResult`.

    The rebuilt result carries everything
    :meth:`~repro.service.loadgen.LoadReport.verify` needs: status,
    record tuples, the write version and the submit version.
    """
    check_version(payload, where="service result")
    return ServiceResult(
        status=str(payload.get("status", "")),
        query=query,
        records=[
            tuple(record) for record in payload.get("record_values", [])
        ],
        write_version=int(payload.get("write_version", -1)),
        submit_version=int(payload.get("submit_version", 0)),
        coalesced=bool(payload.get("coalesced", False)),
        batched=bool(payload.get("batched", False)),
        cache_hit=str(payload.get("cache_hit", "")),
    )


def check_request(payload: Mapping) -> dict:
    """Envelope-check one inbound request; raises ProtocolError otherwise."""
    data = check_version(payload, where="request")
    op = data.get("op")
    if not isinstance(op, str):
        raise ProtocolError(f"request op must be a string, got {op!r}")
    return data


#: Re-exported for symmetry with the envelope module.
WIRE_VERSION = SCHEMA_VERSION
