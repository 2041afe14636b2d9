"""Per-tenant namespaces: one file + service + admission budget each.

Multi-tenant placement on a shared device array is exactly the regime the
declustering guarantee targets; the gateway keeps tenants *isolated* by
giving each its own :class:`~repro.storage.parallel_file.PartitionedFile`
and :class:`~repro.service.frontend.QueryService` (built lazily through
the :mod:`repro.api` facade on first touch) plus a private admission
budget in front of the service's own gate:

* ``request_quota`` — a lifetime request budget; deterministic, so tests
  can prove "quota N + k excess requests = exactly k sheds",
* ``rate_per_s`` / ``burst`` — a token bucket (burst tokens up front,
  refilled continuously), and
* ``max_inflight`` — concurrent requests across all of the tenant's
  connections.

A request that fails the tenant gate never reaches the service; the
gateway reports it as a coded ``shed`` / ``rate_limited`` wire error and
bumps the matching ``gateway.*`` counter.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence

from repro.errors import ConfigurationError

__all__ = ["TenantSpec", "TokenBucket", "Tenant"]

#: Tenant-gate outcomes (also wire error codes / counter suffixes).
ACCEPTED = "accepted"
SHED = "shed"
RATE_LIMITED = "rate_limited"


@dataclass(frozen=True)
class TenantSpec:
    """Declarative shape of one tenant namespace.

    *fields*/*devices*/*method* describe the tenant's own partitioned
    file; *service* holds extra :func:`repro.api.make_service` keyword
    options (admission limits, deadline, cache size, checksummed stores —
    the one shared facade keyword surface).
    """

    name: str
    fields: tuple[int, ...]
    devices: int
    method: str = "fx"
    #: Lifetime request budget (``None`` = unlimited).
    request_quota: int | None = None
    #: Token-bucket refill rate, requests/second (``None`` = no rate limit).
    rate_per_s: float | None = None
    #: Token-bucket capacity (the burst the tenant may front-load).
    burst: int = 8
    #: Concurrent in-flight requests across all connections (``None`` = no cap).
    max_inflight: int | None = None
    #: Distinct idempotency keys remembered for write dedup (LRU window).
    idem_window: int = 256
    #: Extra ``make_service`` keyword options.
    service: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError(f"tenant name must be non-empty, got {self.name!r}")
        if self.request_quota is not None and self.request_quota < 0:
            raise ConfigurationError(
                f"request_quota must be >= 0, got {self.request_quota}"
            )
        if self.rate_per_s is not None and self.rate_per_s < 0:
            raise ConfigurationError(
                f"rate_per_s must be >= 0, got {self.rate_per_s}"
            )
        if self.burst < 1:
            raise ConfigurationError(f"burst must be >= 1, got {self.burst}")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.idem_window < 1:
            raise ConfigurationError(
                f"idem_window must be >= 1, got {self.idem_window}"
            )

    @classmethod
    def of(cls, name: str, fields: Sequence[int], devices: int, **options):
        """Keyword-friendly constructor used by the facade and CLI."""
        return cls(name=name, fields=tuple(fields), devices=devices, **options)


class TokenBucket:
    """Continuous-refill token bucket (thread-safe).

    ``rate_per_s=0`` never refills — the *burst* tokens are the whole
    budget, which is what the deterministic rate-limit tests rely on.
    """

    def __init__(
        self,
        rate_per_s: float,
        burst: int,
        clock=time.monotonic,
    ):
        if rate_per_s < 0:
            raise ConfigurationError(f"rate_per_s must be >= 0, got {rate_per_s}")
        if burst < 1:
            raise ConfigurationError(f"burst must be >= 1, got {burst}")
        self.rate_per_s = rate_per_s
        self.burst = burst
        self._clock = clock
        self._tokens = float(burst)
        self._last = clock()
        self._lock = threading.Lock()

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take *tokens* if available; never blocks."""
        with self._lock:
            now = self._clock()
            elapsed = max(0.0, now - self._last)
            self._last = now
            self._tokens = min(
                float(self.burst), self._tokens + elapsed * self.rate_per_s
            )
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False

    @property
    def available(self) -> float:
        with self._lock:
            return self._tokens


class Tenant:
    """One live tenant: lazy service plus the admission budget state.

    *wal* (a :class:`~repro.durability.wal.WriteAheadLog`) makes the
    namespace durable: it is replayed into the fresh file when the lazy
    service is first built — the crash-recovery path a restarted gateway
    takes — and then attached to the service so every later write is
    logged before it is applied.  Idempotency keys stamped into WAL entry
    metadata are rebuilt into the dedup window during that replay, so
    exactly-once acknowledgement survives the crash too.
    """

    def __init__(
        self,
        spec: TenantSpec,
        service_defaults: Mapping | None = None,
        wal=None,
    ):
        self.spec = spec
        #: Gateway-wide ``make_service`` defaults the spec's own options
        #: override (the facade merges them; see ``repro.api.make_gateway``).
        self.service_defaults = dict(service_defaults or {})
        self.wal = wal
        #: Filled at service build when *wal* held entries to replay:
        #: ``{"entries": n, "torn_bytes": t}``.
        self.recovered: dict[str, int] | None = None
        self._service = None
        self._service_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._requests_admitted = 0
        self._inflight = 0
        #: idem key -> acknowledged (bucket, write_version), LRU-bounded.
        self._idem: OrderedDict[str, tuple[tuple, int]] = OrderedDict()
        self._idem_lock = threading.Lock()
        self._bucket = (
            TokenBucket(spec.rate_per_s, spec.burst)
            if spec.rate_per_s is not None
            else None
        )

    # ------------------------------------------------------------------
    # The namespace
    # ------------------------------------------------------------------
    @property
    def service(self):
        """The tenant's :class:`QueryService`, built on first touch.

        Construction goes through the :func:`repro.api.make_service`
        facade — tenants never call service constructors directly, so the
        gateway and the in-process path share one construction surface.
        """
        with self._service_lock:
            if self._service is None:
                from repro.api import make_service

                options = dict(self.service_defaults)
                options.update(self.spec.service)
                service = make_service(
                    self.spec.method,
                    fields=self.spec.fields,
                    devices=self.spec.devices,
                    **options,
                )
                if self.wal is not None:
                    self._replay_wal(service)
                    service.wal = self.wal
                self._service = service
            return self._service

    def _replay_wal(self, service) -> None:
        """Rebuild the fresh file (and idem window) from the tenant's WAL.

        Mirrors :func:`repro.durability.durable_file.recover`: inserts and
        deletes replay in log order, ``move`` audit entries are no-ops.
        Versions come out identical to the original run because WAL order
        equals write-version order (the service appends under the file's
        mutation lock).
        """
        entries = self.wal.entries()
        if not entries and not self.wal.torn_bytes_discarded:
            return
        from repro.obs import telemetry, trace_span

        with trace_span(
            "tenant.recover",
            tenant=self.spec.name,
            entries=len(entries),
        ) as span:
            for entry in entries:
                if entry.op == "insert":
                    bucket, version = service.file.insert_versioned(
                        entry.record
                    )
                    idem = (entry.meta or {}).get("idem")
                    if isinstance(idem, str):
                        self._remember(idem, (tuple(bucket), version))
                elif entry.op == "delete":
                    service.file.delete(entry.record)
            if self.wal.torn_bytes_discarded:
                span.add_event(
                    "wal.torn_tail", bytes=self.wal.torn_bytes_discarded
                )
        self.recovered = {
            "entries": len(entries),
            "torn_bytes": self.wal.torn_bytes_discarded,
        }
        metrics = telemetry().metrics
        labels = {"tenant": self.spec.name}
        metrics.add("chaos.recovered_writes", len(entries), labels=labels)
        if self.wal.torn_bytes_discarded:
            metrics.add("chaos.torn_tails", labels=labels)

    @property
    def started(self) -> bool:
        """Has the lazy service been materialised yet?"""
        with self._service_lock:
            return self._service is not None

    def shutdown(self) -> None:
        """Retire the tenant's service futures surface, if it was built."""
        with self._service_lock:
            service = self._service
        if service is not None:
            service.shutdown()

    # ------------------------------------------------------------------
    # Exactly-once writes
    # ------------------------------------------------------------------
    def insert_idempotent(
        self, record: tuple, idem: str | None
    ) -> tuple[tuple, int, bool]:
        """Insert with at-most-once application per idempotency key.

        Returns ``(bucket, write_version, deduped)``.  A key seen within
        the LRU window re-acknowledges the original position without
        touching the file; a fresh key rides the normal insert path with
        the key stamped into the WAL entry, so a crash between apply and
        acknowledgement still dedupes the retry after recovery.
        """
        if idem is None:
            bucket, version = self.service.insert(record)
            return tuple(bucket), version, False
        # Lookup and apply are atomic under the window lock: a retry that
        # races its original (duplicated frames land the same write on
        # two connections at once) must observe the first apply, or the
        # record would land twice.  Writes are serialised by the file's
        # mutation lock anyway, so this costs no extra parallelism.
        with self._idem_lock:
            hit = self._idem.get(idem)
            if hit is not None:
                self._idem.move_to_end(idem)
                return hit[0], hit[1], True
            bucket, version = self.service.insert(
                record, wal_meta={"idem": idem}
            )
            ack = (tuple(bucket), version)
            self._remember(idem, ack)
        return ack[0], ack[1], False

    def _remember(self, idem: str, ack: tuple[tuple, int]) -> None:
        """Record one acknowledged key, evicting beyond the window.

        Callers hold ``_idem_lock`` (or are single-threaded replay).
        """
        self._idem[idem] = ack
        self._idem.move_to_end(idem)
        while len(self._idem) > self.spec.idem_window:
            self._idem.popitem(last=False)

    # ------------------------------------------------------------------
    # The tenant gate
    # ------------------------------------------------------------------
    def admit(self) -> str:
        """Charge one request against the tenant budget.

        Returns ``"accepted"``, ``"shed"`` (quota or inflight cap) or
        ``"rate_limited"``; on acceptance the caller must pair with
        :meth:`release`.
        """
        with self._state_lock:
            if (
                self.spec.request_quota is not None
                and self._requests_admitted >= self.spec.request_quota
            ):
                return SHED
            if (
                self.spec.max_inflight is not None
                and self._inflight >= self.spec.max_inflight
            ):
                return SHED
            if self._bucket is not None and not self._bucket.try_acquire():
                return RATE_LIMITED
            self._requests_admitted += 1
            self._inflight += 1
            return ACCEPTED

    def release(self) -> None:
        with self._state_lock:
            self._inflight -= 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        with self._state_lock:
            return self._inflight

    @property
    def requests_admitted(self) -> int:
        with self._state_lock:
            return self._requests_admitted

    def stats(self) -> dict:
        """JSON-ready snapshot for the ``stats`` wire op."""
        with self._state_lock:
            admitted = self._requests_admitted
            inflight = self._inflight
        with self._service_lock:
            service = self._service
        return {
            "tenant": self.spec.name,
            "admitted": admitted,
            "inflight": inflight,
            "quota": self.spec.request_quota,
            "rate_per_s": self.spec.rate_per_s,
            "started": service is not None,
            "write_version": (
                0 if service is None else service.file.write_version
            ),
            "durable": self.wal is not None,
            "recovered": self.recovered,
        }
