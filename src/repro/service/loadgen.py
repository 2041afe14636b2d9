"""Deterministic closed-loop load generation and serial-replay verification.

One driver core feeds every load run: in process
(:class:`LoadGenerator`), over the wire
(:func:`~repro.gateway.loadtest.run_loopback_load`) and through fault
proxies across a crash-restart
(:func:`~repro.chaos.harness.run_chaos_load`).

* :class:`LoadSpec` is the op-log shape they share.
* :func:`op_log` is one client's *deterministic* request log, seeded per
  ``(seed, client)`` (and tenant), so the same spec always produces the
  same queries and writes regardless of scheduling; :func:`preload`
  inserts seeded records through the driver's own client first.
* :func:`run_clients` runs each log on its own closed-loop client thread:
  each issues its next request only after the previous one completes —
  the classic saturation-free way to measure a serving tier.  No client
  failure can leave a run waiting; each lands in the client's
  :attr:`ClientLog.error`.

The report does two jobs:

* **performance** — throughput and exact latency percentiles (computed
  from the recorded per-request latencies, nearest-rank), plus per-status
  counts and coalescing totals, and
* **correctness** — :meth:`LoadReport.verify` replays the request log
  serially: all writes in their global write-version order, every
  successful query re-evaluated against the exact write-version prefix its
  result claims (``ServiceResult.write_version``) *and* against the state
  at its submit version.  A mismatch at the result version breaks
  linearisability; a mismatch between those two states is a stale read.
  Zero mismatches is the soak acceptance criterion.
"""

from __future__ import annotations

import random
import threading
import time
import zlib
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from types import SimpleNamespace

from repro.errors import ConfigurationError
from repro.hashing.fields import FileSystem
from repro.hashing.multikey import MultiKeyHash
from repro.query.partial_match import PartialMatchQuery
from repro.query.workload import QueryWorkload, WorkloadSpec
from repro.service.frontend import QueryService, ServiceResult

__all__ = [
    "ClientLog",
    "LoadSpec",
    "LoadGenerator",
    "LoadReport",
    "RequestRecord",
    "op_log",
    "preload",
    "run_clients",
]


@dataclass(frozen=True)
class LoadSpec:
    """Shape of one load run (per tenant, over the wire).

    ``write_every=k`` makes every k-th op of each client an insert and
    ``batch_every=k`` every k-th a batch of ``batch_size`` queries (0 =
    never; an insert wins a tie).  ``hot_fraction`` of the single queries
    are drawn from a small shared pool of ``hot_pool`` popular queries —
    the duplicate traffic coalescing exists for.  ``preload`` records are
    inserted, one by one, before the timed run starts.
    """

    clients: int = 4
    requests_per_client: int = 50
    seed: int = 0
    spec_probability: float = 0.5
    write_every: int = 0
    batch_every: int = 0
    batch_size: int = 4
    hot_fraction: float = 0.0
    hot_pool: int = 4
    preload: int = 0
    deadline_ms: float | None = None

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ConfigurationError(f"clients must be >= 1, got {self.clients}")
        if self.requests_per_client < 1:
            raise ConfigurationError(
                f"requests_per_client must be >= 1, got "
                f"{self.requests_per_client}"
            )
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ConfigurationError(
                f"hot_fraction {self.hot_fraction} outside [0, 1]"
            )
        if self.write_every < 0 or self.batch_every < 0 or self.preload < 0:
            raise ConfigurationError(
                "write_every/batch_every/preload must be >= 0"
            )
        if self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )


@dataclass
class RequestRecord:
    """One completed query request, as the verifier needs it."""

    client: int
    index: int
    query: PartialMatchQuery
    result: ServiceResult
    latency_ms: float


@dataclass
class LoadReport:
    """Everything one load run produced."""

    spec: LoadSpec
    wall_s: float
    requests: list[RequestRecord] = field(default_factory=list)
    #: ``(version, record)`` for every insert of the timed run.
    writes: list[tuple[int, tuple]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    #: ``(version, record)`` for every preloaded insert: replayed by
    #: :meth:`verify`, but not part of the timed run's counts.
    preloaded: list[tuple[int, tuple]] = field(default_factory=list)

    @classmethod
    def collect(
        cls,
        spec: LoadSpec,
        wall_s: float,
        logs: Sequence["ClientLog"],
        preloaded: Sequence["ClientLog"] = (),
    ) -> "LoadReport":
        """One report over the client logs of a run and of its preload."""
        return cls(
            spec=spec,
            wall_s=wall_s,
            requests=[request for log in logs for request in log.requests],
            writes=[write for log in logs for write in log.writes],
            errors=[
                log.error for log in [*preloaded, *logs] if log.error
            ],
            preloaded=[write for log in preloaded for write in log.writes],
        )

    # ------------------------------------------------------------------
    # Performance
    # ------------------------------------------------------------------
    @property
    def completed(self) -> int:
        return len(self.requests) + len(self.writes)

    def status_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for request in self.requests:
            counts[request.result.status] = (
                counts.get(request.result.status, 0) + 1
            )
        return counts

    @property
    def coalesced(self) -> int:
        return sum(1 for r in self.requests if r.result.coalesced)

    @property
    def throughput_qps(self) -> float:
        if self.wall_s <= 0:
            return 0.0
        return self.completed / self.wall_s

    def latency_percentile(self, q: float) -> float:
        """Latency at quantile ``q`` in [0, 1] (nearest-rank, exact)."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile {q} outside [0, 1]")
        if not self.requests:
            return 0.0
        ordered = sorted(r.latency_ms for r in self.requests)
        rank = max(0, min(len(ordered) - 1, round(q * (len(ordered) - 1))))
        return ordered[rank]

    def to_dict(self) -> dict:
        counts = self.status_counts()
        return {
            "clients": self.spec.clients,
            "requests": len(self.requests),
            "writes": len(self.writes),
            "wall_s": round(self.wall_s, 6),
            "throughput_qps": round(self.throughput_qps, 3),
            "p50_ms": round(self.latency_percentile(0.50), 6),
            "p95_ms": round(self.latency_percentile(0.95), 6),
            "p99_ms": round(self.latency_percentile(0.99), 6),
            "ok": counts.get("ok", 0),
            "shed": counts.get("shed", 0),
            "timeout": counts.get("timeout", 0),
            "coalesced": self.coalesced,
            "errors": len(self.errors),
        }

    # ------------------------------------------------------------------
    # Correctness: serial replay
    # ------------------------------------------------------------------
    def verify(self, multikey_hash: MultiKeyHash) -> list[str]:
        """Serial-replay check; returns human-readable mismatch messages.

        The preloaded and timed writes together must hold the file's
        whole history from version 1.  For every successful query the
        served records must be byte-identical (as sorted tuples) to a
        serial, uncached evaluation of the request log at the result's
        write version; when the result version predates the submit
        version, the two prefix states must additionally agree for that
        query — disagreement there is precisely a stale read.
        """
        timeline: list[tuple] = []
        history = sorted(self.preloaded + self.writes)
        for position, (version, record) in enumerate(history):
            if version != position + 1:
                return [
                    f"write log is not a contiguous version sequence at "
                    f"version {version} (expected {position + 1}); "
                    "writes bypassed the service?"
                ]
            timeline.append(record)

        def evaluate(query: PartialMatchQuery, version: int) -> list[tuple]:
            return sorted(
                record
                for record in timeline[:version]
                if query.matches(multikey_hash.bucket_of(record))
            )

        mismatches: list[str] = []
        for request in self.requests:
            result = request.result
            if not result.ok:
                continue
            served = sorted(tuple(record) for record in result.records)
            expected = evaluate(request.query, result.write_version)
            if served != expected:
                mismatches.append(
                    f"client {request.client} #{request.index} "
                    f"{request.query.describe()}: served {len(served)} "
                    f"records != replay at version {result.write_version} "
                    f"({len(expected)} records)"
                )
                continue
            if result.write_version < result.submit_version:
                at_submit = evaluate(request.query, result.submit_version)
                if served != at_submit:
                    mismatches.append(
                        f"client {request.client} #{request.index} "
                        f"{request.query.describe()}: STALE — result "
                        f"version {result.write_version} predates submit "
                        f"version {result.submit_version} and the states "
                        "differ for this query"
                    )
        return mismatches


# ----------------------------------------------------------------------
# Deterministic op logs
# ----------------------------------------------------------------------
def op_log(
    filesystem: FileSystem,
    spec: LoadSpec,
    client: int,
    tenant: str | None = None,
) -> list[tuple[str, object]]:
    """The deterministic op log of one client.

    ``("query", q)``, ``("batch", [q, ...])`` and ``("insert", record)``
    tuples, independent of thread scheduling.  Without a *tenant* each
    ``q`` is a :class:`PartialMatchQuery` for an in-process service; a
    wire client of *tenant* gets ``{field: value}`` maps instead, from
    streams keyed by the tenant too.
    """
    if tenant is None:
        rng = random.Random(f"loadgen:{spec.seed}:{client}")
        salt = 0
    else:
        rng = random.Random(f"gateway-load:{spec.seed}:{tenant}:{client}")
        # PYTHONHASHSEED randomises str hashes; crc32 keeps the
        # per-tenant streams deterministic across processes.
        salt = zlib.crc32(tenant.encode("utf-8")) & 0xFFFF

    def form(query: PartialMatchQuery):
        return query if tenant is None else dict(query.specified_items())

    def workload(seed: int) -> QueryWorkload:
        return QueryWorkload(
            filesystem,
            WorkloadSpec(
                spec_probability=spec.spec_probability,
                exclude_trivial=True,
                seed=seed ^ salt,
            ),
        )

    queries = workload(spec.seed * 104729 + client + 1)
    hot = [
        form(query)
        for query in workload(spec.seed * 7919 + 1).take(max(1, spec.hot_pool))
    ]
    ops: list[tuple[str, object]] = []
    for index in range(spec.requests_per_client):
        if spec.write_every and (index + 1) % spec.write_every == 0:
            ops.append(("insert", _record(rng, filesystem)))
        elif spec.batch_every and (index + 1) % spec.batch_every == 0:
            batch = [form(queries.next_query()) for __ in range(spec.batch_size)]
            ops.append(("batch", batch))
        elif rng.random() < spec.hot_fraction:
            ops.append(("query", hot[rng.randrange(len(hot))]))
        else:
            ops.append(("query", form(queries.next_query())))
    return ops


def _record(rng: random.Random, filesystem: FileSystem) -> tuple:
    return tuple(rng.randrange(4096) for __ in range(filesystem.n_fields))


# ----------------------------------------------------------------------
# The client loop
# ----------------------------------------------------------------------
@dataclass
class ClientLog:
    """What one client thread of a run produced."""

    requests: list[RequestRecord] = field(default_factory=list)
    #: ``(version, record)`` for every acknowledged insert.
    writes: list[tuple[int, tuple]] = field(default_factory=list)
    #: ``(kind, status, attempts)`` for every op answered or classified.
    outcomes: list[tuple[str, str, int]] = field(default_factory=list)
    #: The failure that stopped this client early, if any.
    error: str | None = None


def _unexpected(error: Exception) -> None:
    return None


def run_clients(
    connect: Callable[[int], object],
    logs: Sequence[tuple[str, int, list[tuple[str, object]]]],
    deadline_ms: float | None = None,
    classify: Callable[[Exception], tuple[str, int] | None] = _unexpected,
    crash_at: float | None = None,
    crash: Callable[[], None] | None = None,
) -> tuple[list[ClientLog], float]:
    """Run each ``(label, client, ops)`` log on its own client thread.

    ``connect(slot)`` builds the client of ``logs[slot]``: anything with
    ``query(q, deadline_ms=)``, ``batch(qs, deadline_ms=)``,
    ``insert(record)`` and ``close()``.  The threads start together behind
    a barrier, and the returned wall time runs from there to the last
    join.  An error that *classify* maps to ``(status, attempts)`` is an
    op outcome; any other stops that client with its
    :attr:`ClientLog.error`.  With *crash_at*, every client pauses after
    that fraction of its ops, *crash* runs, then all resume.  Each thread
    waits at every barrier whether or not its client failed, so no
    failure leaves the run waiting.
    """
    results = [ClientLog() for __ in logs]
    start, paused, resumed = (
        threading.Barrier(len(logs) + 1) for __ in range(3)
    )

    def client_thread(slot: int) -> None:
        label, number, ops = logs[slot]
        log = results[slot]
        pause = len(ops) if crash_at is None else int(len(ops) * crash_at)

        def run(first: int, stop: int) -> bool:
            for index in range(first, stop):
                kind, payload = ops[index]
                started = time.perf_counter()
                try:
                    if kind == "insert":
                        __, version = client.insert(payload)
                        log.writes.append((version, payload))
                        status = "ok"
                    else:
                        served = (
                            client.batch(payload, deadline_ms=deadline_ms)
                            if kind == "batch"
                            else [client.query(payload, deadline_ms=deadline_ms)]
                        )
                        latency_ms = (time.perf_counter() - started) * 1000.0
                        log.requests.extend(
                            RequestRecord(
                                number, index, result.query, result, latency_ms
                            )
                            for result in served
                        )
                        status = "ok" if kind == "batch" else served[0].status
                    outcome = (status, getattr(client, "last_attempts", 1))
                except Exception as error:
                    outcome = classify(error)
                    if outcome is None:
                        log.error = f"{label}: {error!r}"
                        return False
                log.outcomes.append((kind, *outcome))
            return True

        try:
            client = connect(slot)
        except Exception as error:
            client = None
            log.error = f"{label}: connect failed: {error!r}"
        start.wait()
        alive = client is not None and run(0, pause)
        if crash_at is not None:
            paused.wait()
            resumed.wait()
            if alive:
                run(pause, len(ops))
        if client is not None:
            client.close()

    threads = [
        threading.Thread(
            target=client_thread, args=(slot,), name=f"load-{logs[slot][0]}"
        )
        for slot in range(len(logs))
    ]
    for thread in threads:
        thread.start()
    start.wait()
    started = time.perf_counter()
    if crash_at is not None:
        paused.wait()
        try:
            crash()
        finally:
            resumed.wait()
    for thread in threads:
        thread.join()
    return results, time.perf_counter() - started


def preload(
    connect: Callable[[str], object],
    filesystems: dict[str, FileSystem],
    spec: LoadSpec,
    stream: str,
    classify: Callable[[Exception], tuple[str, int] | None] = _unexpected,
) -> list[ClientLog]:
    """Insert ``spec.preload`` seeded records per file before a timed run.

    Each name in *filesystems* gets one client, ``connect(name)``, whose
    inserts are serial, so the timed run starts from a known version.
    Its records come from the random stream ``{stream}:{seed}:{name}``.
    Returns one :class:`ClientLog` per name, in order (none when
    ``spec.preload`` is 0).
    """
    if not spec.preload:
        return []
    names = list(filesystems)
    logs = []
    for name, filesystem in filesystems.items():
        rng = random.Random(f"{stream}:{spec.seed}:{name}")
        inserts = [
            ("insert", _record(rng, filesystem)) for __ in range(spec.preload)
        ]
        logs.append((f"{name} preload", 0, inserts))
    return run_clients(lambda slot: connect(names[slot]), logs, classify=classify)[0]


class LoadGenerator:
    """Closed-loop, deterministic multi-client driver for a service."""

    def __init__(self, service: QueryService, spec: LoadSpec | None = None):
        self.service = service
        self.spec = spec or LoadSpec()

    def run(self) -> LoadReport:
        """Preload, then execute the whole load: one thread per client."""
        spec, service = self.spec, self.service
        fs = service.file.filesystem
        session = SimpleNamespace(
            query=service.execute,
            batch=service.execute_many,
            insert=service.insert,
            close=lambda: None,
        )
        preloaded = preload(
            lambda name: session, {"service": fs}, spec, "loadgen-preload"
        )
        logs, wall_s = run_clients(
            lambda slot: session,
            [
                (f"client {client}", client, op_log(fs, spec, client))
                for client in range(spec.clients)
            ],
            spec.deadline_ms,
        )
        return LoadReport.collect(spec, wall_s, logs, preloaded)
