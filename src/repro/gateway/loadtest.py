"""Loopback multi-tenant load test with end-to-end staleness verification.

This drives a running :class:`~repro.gateway.server.Gateway` through real
sockets — N tenants x C connections, each connection a closed-loop client
running its tenant's :func:`~repro.service.loadgen.op_log` on the shared
client loop (:func:`~repro.service.loadgen.run_clients`), as the
in-process :class:`~repro.service.loadgen.LoadGenerator` does.  Every
response is rebuilt into a full
:class:`~repro.service.frontend.ServiceResult`, so the run ends with one
:class:`~repro.service.loadgen.LoadReport` per tenant and the
zero-stale-reads serial-replay check
(:meth:`~repro.service.loadgen.LoadReport.verify`) runs over traffic that
crossed the wire, not a shortcut in-process path.

Tenant-gate rejections (quota ``shed`` / ``rate_limited``) come back as
coded wire errors; the harness counts them per code so tests can assert
"quota N + k excess = exactly k sheds" against the ``gateway.*``
counters.
"""

from __future__ import annotations

import zlib
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.gateway.client import GatewayClient, GatewayRequestError
from repro.gateway.tenant import TenantSpec
from repro.hashing.fields import FileSystem
from repro.hashing.multikey import MultiKeyHash
from repro.service.loadgen import (
    LoadReport,
    LoadSpec,
    op_log,
    preload,
    run_clients,
)

__all__ = ["GatewayLoadReport", "run_loopback_load"]


@dataclass
class GatewayLoadReport:
    """Everything one loopback run produced, per tenant plus wire totals."""

    spec: LoadSpec
    wall_s: float
    #: One serial-replay-verifiable report per tenant.
    per_tenant: dict[str, LoadReport] = field(default_factory=dict)
    #: Coded wire rejections per tenant, e.g. ``{"alpha": {"shed": 3}}``.
    rejections: dict[str, dict[str, int]] = field(default_factory=dict)
    #: Client-side transport failures (should stay empty).
    errors: list[str] = field(default_factory=list)
    #: Per-tenant hash functions the replay verification evaluates with.
    _hashes: dict[str, MultiKeyHash] = field(default_factory=dict, repr=False)

    @property
    def completed(self) -> int:
        return sum(report.completed for report in self.per_tenant.values())

    @property
    def throughput_qps(self) -> float:
        if self.wall_s <= 0:
            return 0.0
        return self.completed / self.wall_s

    def verify(self) -> dict[str, list[str]]:
        """Serial-replay every tenant's log; returns mismatches by tenant.

        All-empty values are the zero-stale-reads acceptance criterion.
        Preloaded records travelled through the same versioned write log,
        so each tenant's timeline replays from version 1.
        """
        return {
            name: report.verify(self._hashes[name])
            for name, report in self.per_tenant.items()
        }

    def to_dict(self) -> dict:
        from repro.envelope import versioned

        return versioned(
            {
                "wall_s": round(self.wall_s, 6),
                "throughput_qps": round(self.throughput_qps, 3),
                "tenants": {
                    name: report.to_dict()
                    for name, report in sorted(self.per_tenant.items())
                },
                "rejections": {
                    name: dict(sorted(codes.items()))
                    for name, codes in sorted(self.rejections.items())
                },
                "errors": len(self.errors),
            }
        )


def run_loopback_load(
    address: tuple[str, int],
    tenants: Sequence[TenantSpec],
    spec: LoadSpec | None = None,
) -> GatewayLoadReport:
    """Drive the gateway at *address* and return the verifiable report.

    *spec* is per tenant: ``spec.clients`` connections each.  *tenants*
    accepts :class:`TenantSpec` entries or the live
    :class:`~repro.gateway.tenant.Tenant` objects a gateway exposes.
    """
    spec = spec or LoadSpec()
    tenants = [getattr(tenant, "spec", tenant) for tenant in tenants]
    host, port = address
    filesystems = {
        tenant.name: FileSystem.of(*tenant.fields, m=tenant.devices)
        for tenant in tenants
    }

    # The serial-replay proof in verify() rebuilds each tenant's file
    # from version 1, so this run must own the tenant's entire write
    # history — refuse tenants that were already written to.
    setup_seeds = {
        tenant.name: zlib.crc32(
            f"gateway-setup-trace:{spec.seed}:{tenant.name}".encode()
        )
        for tenant in tenants
    }
    for tenant in tenants:
        with GatewayClient(
            host, port, tenant=tenant.name, trace_seed=setup_seeds[tenant.name]
        ) as client:
            existing = int(client.stats().get("write_version", 0))
        if existing:
            raise ConfigurationError(
                f"tenant {tenant.name!r} already has write_version "
                f"{existing}; run_loopback_load needs fresh tenants so "
                f"verify() can replay the full write history"
            )

    # Preload one client per tenant, so the concurrent phase starts from
    # a known version; the writes still flow through the wire and the
    # write log.  A tenant quota small enough to reject preloads counts
    # them like any other rejection rather than aborting the run.
    preloaded = preload(
        lambda name: GatewayClient(
            host, port, tenant=name, trace_seed=~setup_seeds[name]
        ),
        filesystems,
        spec,
        "gateway-preload",
        classify=_rejected,
    )

    slots = [
        (tenant, connection)
        for tenant in tenants
        for connection in range(spec.clients)
    ]

    def connect(slot: int) -> GatewayClient:
        tenant, connection = slots[slot]
        return GatewayClient(
            host,
            port,
            tenant=tenant.name,
            fields=tenant.fields,
            devices=tenant.devices,
            # Deterministic wire-trace ids: the same derivation family as
            # the op log, so two identical runs stamp the same trace id
            # onto the same request.
            trace_seed=zlib.crc32(
                f"gateway-trace:{spec.seed}:{tenant.name}:{connection}".encode()
            ),
        )

    logs, wall_s = run_clients(
        connect, _connection_logs(slots, spec), spec.deadline_ms, _rejected
    )
    per_tenant: dict[str, LoadReport] = {}
    rejections: dict[str, dict[str, int]] = {}
    for position, name in enumerate(filesystems):
        tenant_preload = preloaded[position : position + 1]
        tenant_logs = [
            log for (tenant, __), log in zip(slots, logs) if tenant.name == name
        ]
        per_tenant[name] = LoadReport.collect(
            spec, wall_s, tenant_logs, tenant_preload
        )
        codes = rejections[name] = {}
        for log in tenant_preload + tenant_logs:
            for __, status, __ in log.outcomes:
                if status.startswith("rejected:"):
                    code = status.split(":", 1)[1]
                    codes[code] = codes.get(code, 0) + 1
    return GatewayLoadReport(
        spec=spec,
        wall_s=wall_s,
        per_tenant=per_tenant,
        rejections=rejections,
        errors=[log.error for log in preloaded + logs if log.error],
        _hashes={
            name: MultiKeyHash.default(fs) for name, fs in filesystems.items()
        },
    )


def _connection_logs(
    slots: Sequence[tuple[TenantSpec, int]], spec: LoadSpec
) -> list[tuple[str, int, list]]:
    """The ``(label, connection, ops)`` log of each ``(tenant,
    connection)`` slot, for :func:`~repro.service.loadgen.run_clients`."""
    return [
        (
            f"{tenant.name}#{connection}",
            connection,
            op_log(
                FileSystem.of(*tenant.fields, m=tenant.devices),
                spec,
                connection,
                tenant.name,
            ),
        )
        for tenant, connection in slots
    ]


def _rejected(error: Exception) -> tuple[str, int] | None:
    """A coded gateway reply as an op outcome; anything else is an error."""
    if isinstance(error, GatewayRequestError):
        return f"rejected:{error.code}", 1
    return None
