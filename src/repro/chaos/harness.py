"""The chaos harness: drive faults, crash the gateway, prove invariants.

:func:`run_chaos_load` stands up the whole failure stack — a
:class:`~repro.chaos.supervisor.RestartableGateway`, one fault-injecting
:class:`~repro.chaos.proxy.ChaosEndpoint` per ``(tenant, connection)``,
and one :class:`~repro.gateway.resilient.ResilientGatewayClient` per
endpoint — runs the shared load-driver core (:mod:`repro.service.loadgen`,
with the same per-connection op logs as the loopback load) through it,
optionally kills and restarts the gateway mid-run, and returns a
:class:`ChaosReport` whose
:meth:`~ChaosReport.verify` proves the invariants that make resilience
*correct* rather than merely lucky:

* **zero stale reads** — every tenant's query log serial-replays clean
  against the write-ahead log's version timeline
  (:meth:`~repro.service.loadgen.LoadReport.verify`);
* **no lost acknowledged write** — every ``(version, record)`` a client
  was acked is present in the WAL at exactly that version, crash or not;
* **no doubly applied write** — WAL idempotency keys are unique and no
  two acknowledged writes share a version;
* **bounded retry amplification** — total retries are capped by the
  faults actually injected times the retry budget.

The crash is phased with the client loop's two barriers: every client
finishes its pre-crash ops and parks; the supervisor crash-captures the
WAL "disks" and restarts; only then do clients resume.  Combined with
the strictly synchronous relay (no exchange is ever half-served) this
makes the entire run — fault schedule, WAL contents, retry counts, ack
sets — deterministic per seed: :meth:`ChaosReport.canonical_digest` is
byte-identical across runs of the same spec.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.chaos.faults import NetFaultInjector, NetFaultPlan
from repro.chaos.proxy import ChaosEndpoint
from repro.chaos.supervisor import RestartableGateway
from repro.errors import CircuitOpenError, ConfigurationError
from repro.gateway.loadtest import _connection_logs, _rejected
from repro.gateway.resilient import (
    TRANSPORT_ERRORS,
    CircuitBreaker,
    ResilientGatewayClient,
)
from repro.gateway.server import GatewayConfig
from repro.gateway.tenant import TenantSpec
from repro.hashing.fields import FileSystem
from repro.hashing.multikey import MultiKeyHash
from repro.runtime.retry import RetryPolicy
from repro.service.loadgen import LoadReport, LoadSpec, preload, run_clients

__all__ = ["ChaosSpec", "ChaosReport", "run_chaos_load"]


#: Consecutive transport failures before a client's breaker trips.
#: Deliberately high: an open breaker heals on a wall-clock cooldown,
#: which would break run determinism.
BREAKER_THRESHOLD = 64
BREAKER_COOLDOWN_S = 1.0


@dataclass(frozen=True)
class ChaosSpec:
    """Shape of one chaos run: the op logs (per tenant) and the chaos."""

    #: The op-log shape shared with the fault-free loads.  Its inserts
    #: are what the exactly-once proof checks, so the default writes
    #: every third op and preloads 4 records per tenant.
    load: LoadSpec = field(
        default_factory=lambda: LoadSpec(
            clients=2, requests_per_client=16, write_every=3, preload=4
        )
    )
    #: The wire-fault schedule; :meth:`NetFaultPlan.none` = clean run.
    faults: NetFaultPlan = field(default_factory=NetFaultPlan.none)
    #: Fraction of each connection's ops after which the gateway is
    #: crash-killed and restarted (``None`` = no crash).
    crash_at: float | None = 0.5
    #: Shear the final WAL frame in half at the crash (torn tail).
    torn_tail: bool = False
    #: Socket deadline of each client attempt.
    timeout_s: float = 10.0
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_attempts=6, base_delay_ms=2.0, max_delay_ms=25.0
        )
    )

    def __post_init__(self) -> None:
        if self.crash_at is not None and not 0.0 <= self.crash_at <= 1.0:
            raise ConfigurationError(
                f"crash_at {self.crash_at} outside [0, 1]"
            )
        if self.timeout_s <= 0:
            raise ConfigurationError(
                f"timeout_s must be positive, got {self.timeout_s}"
            )


@dataclass
class ChaosReport:
    """Everything one chaos run produced, plus the invariant checks."""

    spec: ChaosSpec
    wall_s: float
    crashes: int
    #: One serial-replay-verifiable report per tenant; its ``writes``
    #: timeline is the WAL ground truth, not the clients' view.
    per_tenant: dict[str, LoadReport] = field(default_factory=dict)
    #: Client-acknowledged ``(version, record)`` writes per tenant
    #: (preload included) — what "no lost acknowledged write" checks.
    acked: dict[str, list[tuple[int, tuple]]] = field(default_factory=dict)
    #: Idempotency keys found in each tenant's WAL, in log order.
    wal_idem: dict[str, list[str]] = field(default_factory=dict)
    #: ``"tenant#connection"`` -> ``[(kind, status, attempts), ...]``.
    outcomes: dict[str, list[tuple[str, str, int]]] = field(
        default_factory=dict
    )
    #: ``"tenant#connection"`` -> fault kind -> times injected.
    faults: dict[str, dict[str, int]] = field(default_factory=dict)
    #: Per-tenant recovery summaries after the restart (``None`` entries
    #: mean that tenant had nothing to recover).
    recovered: dict[str, dict | None] = field(default_factory=dict)
    #: Ops the clients' logs planned, whether or not a client got to them
    #: (a client stopped by an unexpected error leaves the rest unrun).
    total_ops: int = 0
    total_retries: int = 0
    total_reconnects: int = 0
    total_deduped: int = 0
    #: Unexpected client exceptions (must stay empty).
    errors: list[str] = field(default_factory=list)
    _hashes: dict[str, MultiKeyHash] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    # Outcome accounting
    # ------------------------------------------------------------------
    @property
    def ok_ops(self) -> int:
        return sum(
            1
            for ops in self.outcomes.values()
            for __, status, __ in ops
            if status == "ok"
        )

    @property
    def availability(self) -> float:
        """Fraction of planned chaos-phase ops that ultimately succeeded."""
        total = self.total_ops
        return 1.0 if total == 0 else self.ok_ops / total

    @property
    def faults_injected(self) -> int:
        return sum(
            sum(counts.values()) for counts in self.faults.values()
        )

    # ------------------------------------------------------------------
    # The invariants
    # ------------------------------------------------------------------
    def verify(self) -> list[str]:
        """Every violated invariant, as a human-readable message.

        An empty list is the chaos acceptance criterion.
        """
        violations = list(self.errors)
        for name, report in sorted(self.per_tenant.items()):
            timeline = {version: record for version, record in report.writes}
            seen_versions: dict[int, tuple] = {}
            for version, record in self.acked.get(name, []):
                applied = timeline.get(version)
                if applied is None:
                    violations.append(
                        f"{name}: LOST acknowledged write v{version} "
                        f"{record} — not in the WAL"
                    )
                elif tuple(applied) != tuple(record):
                    violations.append(
                        f"{name}: acknowledged write v{version} {record} "
                        f"!= WAL record {applied}"
                    )
                earlier = seen_versions.get(version)
                if earlier is not None and tuple(earlier) != tuple(record):
                    violations.append(
                        f"{name}: version {version} acknowledged for two "
                        f"different writes: {earlier} and {record}"
                    )
                seen_versions[version] = tuple(record)
            keys = self.wal_idem.get(name, [])
            if len(keys) != len(set(keys)):
                dupes = sorted(
                    key for key in set(keys) if keys.count(key) > 1
                )
                violations.append(
                    f"{name}: DOUBLY APPLIED writes — idempotency keys "
                    f"{dupes} appear more than once in the WAL"
                )
            violations.extend(
                f"{name}: {message}"
                for message in report.verify(self._hashes[name])
            )
        # Retry amplification: every retry must be attributable to an
        # injected fault or a crash-severed connection, each of which can
        # burn at most the per-call retry budget.
        disruptions = self.faults_injected + self.crashes * len(self.outcomes)
        ceiling = disruptions * self.spec.retry.max_attempts
        if self.total_retries > ceiling:
            violations.append(
                f"retry amplification: {self.total_retries} retries > "
                f"{ceiling} ({disruptions} disruptions x "
                f"{self.spec.retry.max_attempts} attempts)"
            )
        return violations

    # ------------------------------------------------------------------
    # Canonical (seed-deterministic) view
    # ------------------------------------------------------------------
    def canonical_dict(self) -> dict:
        """The run stripped to what determinism guarantees.

        Wall-clock, latencies, write-version assignments and WAL order
        all depend on thread interleaving; what a seed pins down is the
        fault schedule, each endpoint's op outcomes, the retry totals and
        the *multisets* of applied and acknowledged records — so those
        are what the canonical view (and its digest) contains.
        """
        from repro.envelope import versioned

        return versioned(
            {
                "seed": self.spec.load.seed,
                "faults": self.spec.faults.describe(),
                "crash_at": self.spec.crash_at,
                "torn_tail": self.spec.torn_tail,
                "crashes": self.crashes,
                "endpoints": {
                    key: {
                        "outcomes": [list(entry) for entry in ops],
                        "faults": dict(sorted(self.faults.get(key, {}).items())),
                    }
                    for key, ops in sorted(self.outcomes.items())
                },
                "tenants": {
                    name: {
                        "wal_entries": len(report.writes),
                        "acked_writes": len(self.acked.get(name, [])),
                        "wal_digest": _records_digest(
                            record for __, record in report.writes
                        ),
                        "acked_digest": _records_digest(
                            record
                            for __, record in self.acked.get(name, [])
                        ),
                        "idem_keys": sorted(self.wal_idem.get(name, [])),
                    }
                    for name, report in sorted(self.per_tenant.items())
                },
                "totals": {
                    "ops": self.total_ops,
                    "ok": self.ok_ops,
                    "retries": self.total_retries,
                    "reconnects": self.total_reconnects,
                    "deduped": self.total_deduped,
                    "faults_injected": self.faults_injected,
                },
            }
        )

    def canonical_digest(self) -> str:
        """SHA-256 over the canonical view — identical for identical seeds."""
        payload = json.dumps(
            self.canonical_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_dict(self) -> dict:
        from repro.envelope import versioned

        violations = self.verify()
        return versioned(
            {
                "wall_s": round(self.wall_s, 6),
                "availability": round(self.availability, 6),
                "ops": self.total_ops,
                "ok": self.ok_ops,
                "crashes": self.crashes,
                "faults_injected": self.faults_injected,
                "retries": self.total_retries,
                "reconnects": self.total_reconnects,
                "deduped": self.total_deduped,
                "tenants": {
                    name: report.to_dict()
                    for name, report in sorted(self.per_tenant.items())
                },
                "recovered": {
                    name: info
                    for name, info in sorted(self.recovered.items())
                },
                "violations": violations,
                "canonical_digest": self.canonical_digest(),
            }
        )


def _records_digest(records) -> str:
    """Order-independent SHA-256 over a multiset of records."""
    payload = json.dumps(
        sorted(list(record) for record in records),
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def run_chaos_load(
    tenants: Sequence[TenantSpec],
    spec: ChaosSpec | None = None,
    service_defaults: Mapping | None = None,
) -> ChaosReport:
    """One full chaos run: faults in, invariants out.

    *tenants* accepts :class:`TenantSpec` entries or live tenants.  The
    gateway (WAL-durable, supervised), the per-endpoint fault proxies and
    the resilient clients are all built and torn down inside the call.
    """
    spec = spec or ChaosSpec()
    load = spec.load
    specs = [getattr(tenant, "spec", tenant) for tenant in tenants]
    filesystems = {
        tenant.name: FileSystem.of(*tenant.fields, m=tenant.devices)
        for tenant in specs
    }
    supervisor = RestartableGateway(
        specs,
        config=GatewayConfig(max_connections=4 * len(specs) * load.clients + 8),
        service_defaults=service_defaults,
    )
    host, port = supervisor.start()

    # Preload through the real gateway (no proxy): these writes ride the
    # WAL like any other, so the verify timeline starts at version 1.
    preloaded = preload(
        lambda name: ResilientGatewayClient(
            host,
            port,
            tenant=name,
            retry=spec.retry,
            timeout_s=spec.timeout_s,
            trace_seed=zlib.crc32(
                f"chaos-preload-trace:{load.seed}:{name}".encode()
            ),
            idem_prefix=f"preload:{load.seed}:{name}",
        ),
        filesystems,
        load,
        "chaos-preload",
    )

    injector = NetFaultInjector(spec.faults)
    slots = [
        (tenant, connection)
        for tenant in specs
        for connection in range(load.clients)
    ]
    endpoints = [
        ChaosEndpoint((host, port), injector, tenant.name, connection)
        for tenant, connection in slots
    ]
    for endpoint in endpoints:
        endpoint.start()
    clients: list[ResilientGatewayClient] = []

    def connect(slot: int) -> ResilientGatewayClient:
        tenant, connection = slots[slot]
        proxy_host, proxy_port = endpoints[slot].address
        client = ResilientGatewayClient(
            proxy_host,
            proxy_port,
            tenant=tenant.name,
            fields=tenant.fields,
            devices=tenant.devices,
            retry=spec.retry,
            timeout_s=spec.timeout_s,
            breaker=CircuitBreaker(
                failure_threshold=BREAKER_THRESHOLD,
                cooldown_s=BREAKER_COOLDOWN_S,
            ),
            trace_seed=zlib.crc32(
                f"chaos-trace:{load.seed}:{tenant.name}:{connection}".encode()
            ),
            idem_prefix=f"{load.seed}:{tenant.name}:{connection}",
        )
        clients.append(client)
        return client

    def outcome(error: Exception) -> tuple[str, int] | None:
        if isinstance(error, CircuitOpenError):
            return "breaker_open", 0
        if isinstance(error, TRANSPORT_ERRORS):
            return f"failed:{type(error).__name__}", spec.retry.max_attempts
        return _rejected(error)

    def crash() -> None:
        supervisor.crash(torn_tail=spec.torn_tail)
        supervisor.restart()

    client_logs = _connection_logs(slots, load)
    logs, wall_s = run_clients(
        connect,
        client_logs,
        load.deadline_ms,
        outcome,
        crash_at=spec.crash_at,
        crash=crash,
    )
    keys = [key for key, __, __ in client_logs]

    acked: dict[str, list[tuple[int, tuple]]] = {name: [] for name in filesystems}
    for name, log in zip(filesystems, preloaded):
        acked[name].extend(log.writes)
    for (tenant, __), log in zip(slots, logs):
        acked[tenant.name].extend(log.writes)
    # The WAL is the ground truth the invariants replay against: entry k
    # describes write version k+1 (appends happen under the file's
    # mutation lock, so log order equals version order).
    per_tenant: dict[str, LoadReport] = {}
    wal_idem: dict[str, list[str]] = {}
    recovered: dict[str, dict | None] = {}
    for name in filesystems:
        entries = supervisor.wal_entries(name)
        per_tenant[name] = LoadReport(
            spec=load,
            wall_s=wall_s,
            requests=[
                request
                for (tenant, __), log in zip(slots, logs)
                if tenant.name == name
                for request in log.requests
            ],
            writes=[
                (index + 1, tuple(entry.record))
                for index, entry in enumerate(entries)
                if entry.op == "insert"
            ],
        )
        wal_idem[name] = [
            str((entry.meta or {}).get("idem"))
            for entry in entries
            if entry.op == "insert" and (entry.meta or {}).get("idem")
        ]
        live = (
            supervisor.gateway.tenants.get(name)
            if supervisor.gateway is not None
            else None
        )
        recovered[name] = live.recovered if live is not None else None

    for endpoint in endpoints:
        endpoint.stop()
    supervisor.stop()

    return ChaosReport(
        spec=spec,
        wall_s=wall_s,
        crashes=supervisor.crashes,
        per_tenant=per_tenant,
        acked=acked,
        wal_idem=wal_idem,
        outcomes={key: log.outcomes for key, log in zip(keys, logs)},
        faults={
            key: dict(endpoint.faults)
            for key, endpoint in zip(keys, endpoints)
        },
        recovered=recovered,
        total_ops=sum(len(ops) for __, __, ops in client_logs),
        total_retries=sum(client.retries for client in clients),
        total_reconnects=sum(client.reconnects for client in clients),
        total_deduped=sum(client.deduped for client in clients),
        errors=[log.error for log in preloaded + logs if log.error],
        _hashes={
            name: MultiKeyHash.default(fs) for name, fs in filesystems.items()
        },
    )
