"""The concurrent query-serving front end.

:class:`QueryService` is the layer that turns a partitioned file plus an
executor into something that can take traffic from many threads at once:

* **admission control** — a bounded permit gate with an explicit shed
  path (:mod:`repro.service.admission`), so saturation produces
  ``ServiceResult(status="shed")`` instead of an unbounded queue,
* **request coalescing** — concurrent identical (or subsumed) queries
  share one device round-trip: the first becomes the *leader* and
  fetches, the rest wait on its in-flight entry and assemble their
  records from its bucket-grouped result,
* **a write-aware result cache** — the thread-safe
  :class:`~repro.storage.cache.CachedExecutor`, invalidated selectively
  by the file's write notifications, and
* **a blocking API run in the caller's thread** —
  :meth:`QueryService.execute` / :meth:`QueryService.execute_many` /
  :meth:`QueryService.insert` (what the network gateway calls on each
  connection thread), with :meth:`QueryService.submit` /
  :meth:`QueryService.submit_many` / :meth:`QueryService.submit_insert`
  returning the same work as already-completed
  :class:`concurrent.futures.Future` objects, and
* **linearisable reads** — every result carries the file
  :attr:`~repro.storage.parallel_file.WriteNotifier.write_version` it
  reflects, so a request log can be replayed serially and compared
  byte-for-byte (the zero-stale-reads acceptance check, implemented in
  :meth:`repro.service.loadgen.LoadReport.verify`).

Coalescing never serves stale data: a follower only joins a flight whose
snapshot version still equals the file's current write version, so any
write that completed before the follower arrived forces a fresh read.
Everything is observable through ``service.*`` counters and histograms in
the process telemetry registry.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field

from repro.envelope import SCHEMA_VERSION
from repro.errors import ConfigurationError
from repro.hashing.fields import Bucket
from repro.obs import telemetry, trace_span
from repro.obs.events import _Deferred
from repro.obs.profile import pattern_of_query
from repro.query.algebra import subsumes
from repro.query.partial_match import PartialMatchQuery, _describe_values
from repro.service.admission import AdmissionController
from repro.storage.cache import CachedExecutor, CachedLookup
from repro.storage.parallel_file import PartitionedFile

__all__ = ["ServiceConfig", "ServiceResult", "QueryService"]

#: Result statuses.
OK = "ok"
SHED = "shed"
TIMEOUT = "timeout"


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one serving front end.

    Every service admits through a bounded queue (a request that finds
    it full is shed at once), coalesces concurrent compatible reads and
    answers them through a write-aware result cache of
    ``cache_capacity`` entries.
    """

    max_concurrent: int = 8
    queue_limit: int = 32
    deadline_ms: float | None = None
    cache_capacity: int = 64

    def validate(self) -> "ServiceConfig":
        """Fail fast on impossible knob values.

        ``QueryService`` runs this at construction; ``make_gateway`` runs
        it per tenant up front, so a bad serving default is rejected when
        the gateway is built rather than surfacing as per-request wire
        errors once the tenant's lazy service is first touched.
        """
        if self.max_concurrent < 1:
            raise ConfigurationError(
                f"max_concurrent must be >= 1, got {self.max_concurrent}"
            )
        if self.queue_limit < 0:
            raise ConfigurationError(
                f"queue_limit must be >= 0, got {self.queue_limit}"
            )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ConfigurationError(
                f"deadline_ms must be positive, got {self.deadline_ms}"
            )
        if not isinstance(self.cache_capacity, int) or self.cache_capacity < 1:
            raise ConfigurationError(
                f"cache_capacity must be an integer >= 1, got "
                f"{self.cache_capacity!r}"
            )
        return self


@dataclass
class ServiceResult:
    """Outcome of one request against the serving front end."""

    status: str  # "ok" | "shed" | "timeout"
    query: PartialMatchQuery | None = None
    records: list[object] = field(default_factory=list)
    #: File write version the records reflect (the read's linearisation
    #: point); -1 for non-ok outcomes.
    write_version: int = -1
    #: File write version when the request entered the service — the floor
    #: the staleness verification measures against.
    submit_version: int = 0
    #: Did this request share another request's device round-trip?
    coalesced: bool = False
    #: Was this request served as part of an explicit batch
    #: (:meth:`QueryService.execute_many`)?
    batched: bool = False
    #: Cache provenance: "exact" | "subsumption" | "miss" | "" (coalesced
    #: follower or non-ok outcome).
    cache_hit: str = ""
    queue_ms: float = 0.0
    total_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == OK

    def to_dict(self) -> dict:
        """JSON-ready summary under the process-wide versioned envelope.

        The same ``{"v": 1, ...}`` schema the gateway wire protocol ships
        per request (there augmented with the records themselves).
        """
        return {
            "v": SCHEMA_VERSION,
            "status": self.status,
            "query": self.query.describe() if self.query else None,
            "records": len(self.records),
            "write_version": self.write_version,
            "submit_version": self.submit_version,
            "coalesced": self.coalesced,
            "batched": self.batched,
            "cache_hit": self.cache_hit,
            "queue_ms": round(self.queue_ms, 6),
            "total_ms": round(self.total_ms, 6),
        }


class _Flight:
    """One in-flight device round-trip that followers may join."""

    def __init__(self, query: PartialMatchQuery, start_version: int):
        self.query = query
        self.start_version = start_version
        self._done = threading.Event()
        self.lookup: CachedLookup | None = None
        self.error: BaseException | None = None
        #: The leader's trace position, so followers can link their spans
        #: to the request that actually did the device round-trip.
        self.leader_context = None

    def resolve(self, lookup: CachedLookup) -> None:
        self.lookup = lookup
        self._done.set()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self._done.set()

    def wait(self, timeout_s: float | None) -> bool:
        return self._done.wait(timeout_s)


class QueryService:
    """Thread-safe serving layer over a :class:`PartitionedFile`.

    >>> from repro import FileSystem, FXDistribution
    >>> fs = FileSystem.of(4, 4, m=4)
    >>> pf = PartitionedFile(FXDistribution(fs))
    >>> service = QueryService(pf)
    >>> __ = service.insert((1, 2))
    >>> result = service.execute(pf.query({0: 1}))
    >>> result.status, len(result.records)
    ('ok', 1)
    """

    def __init__(
        self,
        partitioned_file: PartitionedFile,
        config: ServiceConfig | None = None,
    ):
        self.file = partitioned_file
        self.config = (config or ServiceConfig()).validate()
        self.admission = AdmissionController(
            max_concurrent=self.config.max_concurrent,
            queue_limit=self.config.queue_limit,
        )
        self.cache = CachedExecutor(
            partitioned_file, capacity=self.config.cache_capacity
        )
        self._inflight: dict[PartialMatchQuery, _Flight] = {}
        self._inflight_lock = threading.Lock()
        #: Set by :meth:`shutdown`; the ``submit*`` methods then refuse work.
        self._retired = False
        #: Optional :class:`~repro.durability.wal.WriteAheadLog` writes are
        #: framed into *before* they touch the file (the gateway's
        #: crash-recovery path attaches one per tenant).  ``None`` keeps
        #: the in-memory-only write path.
        self.wal = None

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def insert(self, record, wal_meta=None) -> tuple[Bucket, int]:
        """Insert through the serving layer.

        Returns ``(bucket, write_version)`` — the version is the record's
        position in the global write order, which is what the serial-replay
        verification keys on.  The version comes from the file's atomic
        :meth:`~repro.storage.parallel_file.PartitionedFile.insert_versioned`;
        reading ``file.write_version`` after the insert would attribute a
        concurrent writer's version to this record.

        With a :attr:`wal` attached, the entry is framed into the log
        under the file's mutation lock immediately before the apply, so
        WAL order equals write-version order and entry ``k`` always
        describes version ``k`` — the identity crash recovery replays by.
        *wal_meta* annotates that entry (e.g. an idempotency key).
        """
        wal = self.wal
        if wal is None:
            bucket, version = self.file.insert_versioned(record)
        else:
            # The mutation lock is an RLock, so the nested
            # insert_versioned acquisition below is reentrant.
            with self.file.read_locked():
                wal.append_insert(tuple(record), wal_meta)
                bucket, version = self.file.insert_versioned(record)
        telemetry().metrics.add("service.writes")
        return bucket, version

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def execute(
        self,
        query: PartialMatchQuery,
        deadline_ms: float | None = None,
    ) -> ServiceResult:
        """Serve one partial match query, never raising for overload.

        Runs in the caller's thread: the gateway calls it on the
        connection thread that read the frame, so ``service.request``
        opens as a plain child of that thread's ``gateway.request`` span.
        *deadline_ms* overrides the config default for this request.
        """
        start = time.perf_counter()
        deadline_ms = (
            deadline_ms if deadline_ms is not None else self.config.deadline_ms
        )
        metrics = telemetry().metrics
        metrics.add("service.requests")
        submit_version = self.file.write_version

        decision = self.admission.admit(deadline_ms)
        if not decision.admitted:
            metrics.add(f"service.{decision.outcome}")
            result = ServiceResult(
                status=decision.outcome,
                query=query,
                submit_version=submit_version,
                queue_ms=decision.queue_ms,
                total_ms=(time.perf_counter() - start) * 1000.0,
            )
            self._observe(metrics, result)
            return result
        try:
            with trace_span(
                "service.request",
                query=_Deferred(_describe_values, query.values),
            ) as span:
                result = self._serve(query, start, deadline_ms)
                result.submit_version = submit_version
                result.queue_ms = decision.queue_ms
                span.set_attr("status", result.status)
                span.set_attr("coalesced", result.coalesced)
                if result.cache_hit:
                    span.set_attr("cache_hit", result.cache_hit)
        finally:
            self.admission.release()
        result.total_ms = (time.perf_counter() - start) * 1000.0
        if result.ok:
            metrics.add("service.served")
        else:
            metrics.add(f"service.{result.status}")
        self._observe(metrics, result)
        return result

    def search(self, specified, deadline_ms: float | None = None) -> ServiceResult:
        """Convenience: hash raw attribute values and execute."""
        return self.execute(self.file.query(specified), deadline_ms=deadline_ms)

    # ------------------------------------------------------------------
    # Futures surface
    # ------------------------------------------------------------------
    # Each ``submit*`` runs its blocking method in the caller's thread and
    # hands back a future that is already done: a Future-shaped view of
    # the same code path, for callers that collect results as futures.
    def submit(
        self,
        query: PartialMatchQuery,
        deadline_ms: float | None = None,
    ) -> "Future[ServiceResult]":
        """:meth:`execute` as a completed
        :class:`~concurrent.futures.Future` of the :class:`ServiceResult`.

        The future never carries an overload exception — shed/timeout are
        *results* exactly as for :meth:`execute`; only genuine serving
        failures (device faults escaping the runtime, failed flights)
        surface as the future's exception.
        """
        return self._completed(self.execute, query, deadline_ms=deadline_ms)

    def submit_many(
        self,
        queries: list[PartialMatchQuery],
        deadline_ms: float | None = None,
    ) -> "Future[list[ServiceResult]]":
        """:meth:`execute_many` as a completed future: one engine batch,
        one admission permit, one future holding the per-query results."""
        return self._completed(
            self.execute_many, queries, deadline_ms=deadline_ms
        )

    def submit_insert(self, record, wal_meta=None) -> "Future[tuple[Bucket, int]]":
        """:meth:`insert` as a completed future of ``(bucket, version)``."""
        return self._completed(self.insert, record, wal_meta=wal_meta)

    def _completed(self, fn, *args, **kwargs) -> "Future":
        """Run *fn* here; its result or serving error goes into the future."""
        if self._retired:
            raise RuntimeError("cannot submit after QueryService.shutdown()")
        future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as error:
            future.set_exception(error)
        return future

    def shutdown(self) -> None:
        """Retire the futures surface (idempotent).

        A later ``submit*`` raises :class:`RuntimeError`, as a shut-down
        executor would; the blocking surface stays usable.
        """
        self._retired = True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _serve(
        self, query: PartialMatchQuery, start: float, deadline_ms: float | None
    ) -> ServiceResult:
        flight, leader = self._join_or_lead(query)
        if leader:
            try:
                lookup = self.cache.lookup(query)
            except BaseException as error:
                self._retire(flight)
                flight.fail(error)
                raise
            self._retire(flight)
            flight.resolve(lookup)
            telemetry().metrics.add("service.leader_fetches")
            return ServiceResult(
                status=OK,
                query=query,
                records=lookup.collect(),
                write_version=lookup.version,
                cache_hit=lookup.hit,
            )
        remaining = self._remaining_s(start, deadline_ms)
        if not flight.wait(remaining):
            telemetry().metrics.add("service.coalesce_timeouts")
            return ServiceResult(status=TIMEOUT, query=query)
        if flight.error is not None:
            raise flight.error
        telemetry().metrics.add("service.coalesced")
        self._link_leader(flight.leader_context)
        return ServiceResult(
            status=OK,
            query=query,
            records=flight.lookup.collect(query),
            write_version=flight.lookup.version,
            coalesced=True,
        )

    def execute_many(
        self,
        queries: list[PartialMatchQuery],
        deadline_ms: float | None = None,
    ) -> list[ServiceResult]:
        """Serve an explicit batch of queries in one engine pass.

        The whole batch takes a single admission permit (it is one device
        round-trip) and shares one planning/fetch pass; a shed or timeout
        therefore applies to the batch as a unit.  Per-query results are
        parallel to *queries*, each byte-identical to what
        :meth:`execute` would have returned serially at the same snapshot.
        """
        start = time.perf_counter()
        deadline_ms = (
            deadline_ms if deadline_ms is not None else self.config.deadline_ms
        )
        metrics = telemetry().metrics
        metrics.add("service.requests", len(queries))
        submit_version = self.file.write_version
        if not queries:
            return []

        decision = self.admission.admit(deadline_ms)
        if not decision.admitted:
            metrics.add(f"service.{decision.outcome}", len(queries))
            total = (time.perf_counter() - start) * 1000.0
            results = [
                ServiceResult(
                    status=decision.outcome,
                    query=query,
                    submit_version=submit_version,
                    queue_ms=decision.queue_ms,
                    total_ms=total,
                    batched=True,
                )
                for query in queries
            ]
            for result in results:
                self._observe(metrics, result)
            return results
        try:
            with trace_span(
                "service.batch_request",
                queries=len(queries),
                patterns=" ".join(map(pattern_of_query, queries)),
            ) as span:
                resolved = self.cache.lookup_batch(queries)
                span.set_attr("status", OK)
        finally:
            self.admission.release()
        total = (time.perf_counter() - start) * 1000.0
        metrics.add("service.served", len(queries))
        metrics.add("service.batched", len(queries))
        metrics.observe("service.batch_size", float(len(queries)))
        results = []
        for query, lookup in zip(queries, resolved):
            result = ServiceResult(
                status=OK,
                query=query,
                records=lookup.collect(),
                write_version=lookup.version,
                submit_version=submit_version,
                queue_ms=decision.queue_ms,
                total_ms=total,
                batched=True,
                cache_hit=lookup.hit,
            )
            self._observe(metrics, result)
            results.append(result)
        return results

    def _join_or_lead(self, query: PartialMatchQuery) -> tuple[_Flight, bool]:
        """Join a compatible in-flight request, or become the leader.

        A flight is joinable only if its query answers ours (identical or
        subsuming) *and* no write has completed since the flight's snapshot
        version — otherwise sharing its result could serve a state older
        than one this request is required to observe.
        """
        current = self.file.write_version
        with self._inflight_lock:
            flight = self._inflight.get(query)
            if flight is not None and flight.start_version == current:
                return flight, False
            for candidate in self._inflight.values():
                if (
                    candidate.start_version == current
                    and subsumes(candidate.query, query)
                ):
                    return candidate, False
            flight = _Flight(query, current)
            flight.leader_context = telemetry().tracer.current_context()
            self._inflight[query] = flight
            return flight, True

    def _retire(self, flight: _Flight) -> None:
        with self._inflight_lock:
            if self._inflight.get(flight.query) is flight:
                del self._inflight[flight.query]

    @staticmethod
    def _link_leader(context) -> None:
        """Stamp the leader's trace position onto the follower's span."""
        if context is None:
            return
        span = telemetry().tracer.current()
        if span is not None:
            span.set_attr("leader_trace", context.trace_id)
            span.set_attr("leader_span", context.span_id)

    @staticmethod
    def _observe(metrics, result: ServiceResult) -> None:
        mode = (
            "batched"
            if result.batched
            else ("coalesced" if result.coalesced else "serial")
        )
        metrics.observe(
            "service.latency_ms", result.total_ms, labels={"mode": mode}
        )
        if result.queue_ms:
            metrics.observe("service.queue_ms", result.queue_ms)

    @staticmethod
    def _remaining_s(start: float, deadline_ms: float | None) -> float | None:
        if deadline_ms is None:
            return None
        return max(0.0, deadline_ms / 1000.0 - (time.perf_counter() - start))
