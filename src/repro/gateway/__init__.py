"""Multi-tenant network gateway over the serving tier.

The declustering guarantee — every query touches at most
``ceil(|R(q)|/M)`` buckets per device — only pays off when many
*independent* clients actually share the device array.  This package is
the socket front end that lets them: a length-framed JSON wire protocol
(:mod:`repro.gateway.protocol`) over per-tenant namespaces
(:mod:`repro.gateway.tenant`, each a lazily-built
:class:`~repro.storage.parallel_file.PartitionedFile` +
:class:`~repro.service.frontend.QueryService`), served by a threaded
accept loop with bounded connections, per-tenant quotas and token-bucket
rate limits, and graceful drain (:mod:`repro.gateway.server`).

Each connection thread serves its own requests through the service's
blocking calls (``execute`` / ``execute_many`` / ``insert``);
:class:`~repro.gateway.client.GatewayClient` and the loopback
multi-tenant load test (:mod:`repro.gateway.loadtest`) close the loop,
proving zero stale reads by serial replay over traffic that crossed real
sockets.  Build one through :func:`repro.api.make_gateway`; drive it with
``python -m repro gateway``.

When the wire itself is hostile,
:class:`~repro.gateway.resilient.ResilientGatewayClient` retries typed
transport errors with capped backoff behind a circuit breaker and stamps
idempotency keys so the gateway's per-tenant dedup window (persisted via
the WAL, rebuilt across crash-restarts) acks every write exactly once —
proved end to end by the chaos harness in :mod:`repro.chaos`.
"""

from repro.gateway.client import GatewayClient, GatewayRequestError
from repro.gateway.loadtest import GatewayLoadReport, run_loopback_load
from repro.gateway.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameDecoder,
    WIRE_VERSION,
    encode_frame,
    recv_frame,
)
from repro.gateway.resilient import CircuitBreaker, ResilientGatewayClient
from repro.gateway.server import Gateway, GatewayConfig
from repro.gateway.tenant import Tenant, TenantSpec, TokenBucket

__all__ = [
    "Gateway",
    "GatewayConfig",
    "GatewayClient",
    "GatewayRequestError",
    "CircuitBreaker",
    "ResilientGatewayClient",
    "GatewayLoadReport",
    "run_loopback_load",
    "Tenant",
    "TenantSpec",
    "TokenBucket",
    "FrameDecoder",
    "encode_frame",
    "recv_frame",
    "DEFAULT_MAX_FRAME_BYTES",
    "WIRE_VERSION",
]
