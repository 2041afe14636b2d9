"""Per-layer self-time ledger for the traced run.

:class:`Ledger` wraps the public entry points of every layer a request
crosses, from the client's frame encode down to the stores and the
write-ahead log, by replacing class or module attributes for the duration
of the measured window.  Each wrapper keeps a per-thread span stack and
books its *self* time (its span minus the spans of the wrapped calls it
made) to a layer key.  The wrapper's own bookkeeping is charged to neither
the layer nor its parent, so it shows up as ``trace.unattributed_ratio``
instead of inflating a layer.

Work handed to the service's worker pool crosses threads: the wrapper on
``QueryService.submit*`` waits for the future and books the part of that
wait not covered by the pool thread's ``execute*``/``insert`` span as the
hand-off.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import wait as wait_futures
from time import perf_counter

__all__ = ["Ledger", "CLIENT_THREAD_PREFIX", "SERVER_LAYERS"]

#: Threads whose name starts with this are the benchmark's client threads.
CLIENT_THREAD_PREFIX = "perfbench-client"

#: Layer keys whose self time lies inside a server frame (decoder feed that
#: completed the request through the encode of its response).
SERVER_LAYERS = (
    "gateway.decode",
    "gateway.server_self",
    "gateway.tenant_admit",
    "gateway.marshal",
    "gateway.encode",
    "service.handoff",
    "service.self",
    "service.admission_wait",
    "storage.cache_lookup",
    "storage.insert",
    "storage.read",
    "core.plan",
    "engine.plan",
    "engine.fetch",
    "durability.crc_read",
    "durability.wal_append",
)


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[list[float]] = []
        self.totals: dict[str, float] | None = None
        self.counts: dict[str, float] | None = None
        self.frame_start = 0.0


class Ledger:
    """Installs layer wrappers and accumulates self time per layer key."""

    def __init__(self) -> None:
        self._state = _ThreadState()
        self._lock = threading.Lock()
        self._thread_totals: list[dict[str, float]] = []
        self._thread_counts: list[dict[str, float]] = []
        self._restore: list[tuple[object, str, object]] = []
        #: Wall time of each pool-thread service call, keyed by the id of
        #: its first argument (the object ``submit*`` handed to the pool).
        self._pool_walls: dict[int, float] = {}
        self._engine_versions: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Accumulation
    # ------------------------------------------------------------------
    def _tables(self) -> tuple[dict[str, float], dict[str, float]]:
        state = self._state
        if state.totals is None:
            state.totals, state.counts = {}, {}
            with self._lock:
                self._thread_totals.append(state.totals)
                self._thread_counts.append(state.counts)
        return state.totals, state.counts

    def _book(self, layer: str, seconds: float) -> None:
        totals = self._tables()[0]
        totals[layer] = totals.get(layer, 0.0) + seconds

    def count(self, key: str, amount: float = 1.0) -> None:
        counts = self._tables()[1]
        counts[key] = counts.get(key, 0.0) + amount

    def totals(self) -> dict[str, float]:
        """Seconds of self time per layer key, summed over threads."""
        return _merge(self._thread_totals)

    def counts(self) -> dict[str, float]:
        """Event counts (frames, bytes, reads) summed over threads."""
        return _merge(self._thread_counts)

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _replace(self, owner, name: str, replacement) -> object:
        original = (
            owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        )
        replacement.__wrapped__ = original
        setattr(owner, name, replacement)
        self._restore.append((owner, name, original))
        return original

    def _wrap(self, owner, name: str, key, after=None, consume=False) -> None:
        """Replace ``owner.name`` with a self-timing wrapper.

        *key* is a layer name or a function ``(is_client) -> name``;
        *after* runs as ``after(args, result, started, ended)`` outside the
        timed span.  *consume* materialises a returned iterator inside the
        span, so a generator's work is timed where it runs.
        """
        state = self._state
        ledger = self
        original = None

        def wrapper(*args, **kwargs):
            stack = state.stack
            children = [0.0]
            stack.append(children)
            started = perf_counter()
            try:
                result = original(*args, **kwargs)
                if consume:
                    result = list(result)
            finally:
                ended = perf_counter()
                stack.pop()
            layer = key if isinstance(key, str) else key(_is_client())
            ledger._book(layer, ended - started - children[0])
            if after is not None:
                after(args, result, started, ended)
            if stack:
                stack[-1][0] += perf_counter() - started
            return iter(result) if consume else result

        original = self._replace(owner, name, wrapper)

    def install(self) -> None:
        """Wrap every layer entry point (idempotent per ledger)."""
        if self._restore:
            return
        from repro.distribution.base import SeparableMethod
        from repro.durability.checksummed_store import ChecksummedBucketStore
        from repro.durability.wal import WriteAheadLog
        from repro.engine.batch import BatchEngine
        from repro.engine.plan import ArrayBatchPlanner
        from repro.gateway import protocol
        from repro.gateway.client import GatewayClient
        from repro.gateway.server import Gateway
        from repro.gateway.tenant import Tenant
        from repro.service.admission import AdmissionController
        from repro.service.frontend import QueryService
        from repro.storage.bucket_store import BucketStore
        from repro.storage.cache import CachedExecutor
        from repro.storage.parallel_file import PartitionedFile

        def by_side(client: str, server: str):
            return lambda is_client: client if is_client else server

        # Gateway and wire.  A server frame runs from the decoder feed that
        # completed a request to the encode of its response.
        self._wrap(protocol.FrameDecoder, "feed", "gateway.decode",
                   after=self._after_feed)
        self._wrap(protocol, "parse_query", "gateway.decode")
        self._wrap(protocol, "encode_frame",
                   by_side("gateway.client_marshal", "gateway.encode"),
                   after=self._after_encode)
        self._wrap(protocol, "result_payload", "gateway.marshal")
        self._wrap(protocol, "result_from_payload", "gateway.client_unmarshal")
        self._replace(protocol, "json", _JsonShim(json))
        self._wrap(protocol.json, "loads",
                   by_side("gateway.client_decode", "gateway.decode"))
        self._wrap(GatewayClient, "call", "gateway.client_call",
                   after=self._after_call)
        self._wrap(Gateway, "_handle", "gateway.server_self")
        self._wrap(Tenant, "admit", "gateway.tenant_admit")
        # Service: submit* waits in the connection thread; the work runs
        # as an execute*/insert root on a pool thread.
        for name in ("submit", "submit_many", "submit_insert"):
            self._wrap_submit(QueryService, name)
        for name in ("execute", "execute_many", "insert"):
            self._wrap(QueryService, name, "service.self",
                       after=self._after_pool_call)
        self._wrap(AdmissionController, "admit", "service.admission_wait")
        # Storage, core, engine, durability.
        self._wrap(CachedExecutor, "lookup", "storage.cache_lookup",
                   after=self._after_lookup)
        self._wrap(CachedExecutor, "lookup_batch", "storage.cache_lookup",
                   after=self._after_lookup_batch)
        self._wrap(PartitionedFile, "insert_versioned", "storage.insert")
        self._wrap(SeparableMethod, "qualified_on_device", "core.plan",
                   after=self._after_qualified, consume=True)
        self._wrap(ArrayBatchPlanner, "plan", "engine.plan",
                   after=self._after_plan)
        self._wrap(BatchEngine, "fetch_buckets", "engine.fetch",
                   after=self._after_fetch)
        self._wrap(BucketStore, "records_in", "storage.read")
        self._wrap(ChecksummedBucketStore, "records_in", "durability.crc_read")
        self._wrap(WriteAheadLog, "append_insert", "durability.wal_append",
                   after=self._after_wal_append)

    def uninstall(self) -> None:
        """Put every replaced attribute back, most recent first."""
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    # Hooks (run outside the timed spans)
    # ------------------------------------------------------------------
    def _after_feed(self, args, payloads, started, ended) -> None:
        if payloads:
            self._state.frame_start = started

    def _after_encode(self, args, frame, started, ended) -> None:
        if _is_client():
            return
        self.count("server.frames")
        self.count("server.response_bytes", len(frame))
        if self._state.frame_start:
            self.count("server.frame_s", ended - self._state.frame_start)
            self._state.frame_start = 0.0

    def _after_call(self, args, result, started, ended) -> None:
        self.count("client.frames")
        self.count("client.call_s", ended - started)

    def _wrap_submit(self, service_cls, name: str) -> None:
        ledger = self
        original = None

        def submit(service, first, *args, **kwargs):
            started = perf_counter()
            future = original(service, first, *args, **kwargs)
            # The connection thread reads .result() straight after; waiting
            # here moves that wait inside this span without changing it.
            wait_futures([future])
            elapsed = perf_counter() - started
            with ledger._lock:
                pool_wall = ledger._pool_walls.pop(id(first), 0.0)
            ledger._book("service.handoff", elapsed - pool_wall)
            stack = ledger._state.stack
            if stack:
                stack[-1][0] += perf_counter() - started
            return future

        original = self._replace(service_cls, name, submit)

    def _after_pool_call(self, args, result, started, ended) -> None:
        with self._lock:
            self._pool_walls[id(args[1])] = ended - started

    def _after_lookup(self, args, lookup, started, ended) -> None:
        self._count_lookup(lookup)

    def _after_lookup_batch(self, args, lookups, started, ended) -> None:
        for lookup in lookups:
            self._count_lookup(lookup)

    def _count_lookup(self, lookup) -> None:
        handed = len(lookup.buckets)
        if lookup.hit == "subsumption":
            # A broader entry answered: only its matching buckets are useful.
            useful = sum(
                1 for bucket in lookup.buckets if lookup.query.matches(bucket)
            )
        else:
            useful = handed
        self.count("cache.lookups")
        self.count("cache.buckets_handed", handed)
        self.count("cache.buckets_useful", useful)

    def _after_qualified(self, args, buckets, started, ended) -> None:
        self.count("core.plan_calls")

    def _after_wal_append(self, args, result, started, ended) -> None:
        self.count("durability.wal_appends")

    def _after_plan(self, args, plan, started, ended) -> None:
        self.count("engine.naive_reads", plan.naive_bucket_reads)
        self.count("engine.unique_reads", plan.unique_reads)

    def _after_fetch(self, args, result, started, ended) -> None:
        """Count fetches that see a write version the engine has not."""
        engine, version = args[0], result[1]
        with self._lock:
            last = self._engine_versions.get(id(engine))
            self._engine_versions[id(engine)] = version
        self.count("engine.fetches")
        if last is not None and last != version:
            self.count("engine.fetches_after_write")


class _JsonShim:
    """Stands in for :mod:`json` inside the protocol module, so JSON
    decoding can be timed apart from the socket waits around it."""

    def __init__(self, module) -> None:
        self.dumps = module.dumps
        self.loads = module.loads
        self.JSONDecodeError = module.JSONDecodeError


def _is_client() -> bool:
    return threading.current_thread().name.startswith(CLIENT_THREAD_PREFIX)


def _merge(tables: list[dict[str, float]]) -> dict[str, float]:
    merged: dict[str, float] = {}
    for table in list(tables):
        for key, value in list(table.items()):
            merged[key] = merged.get(key, 0.0) + value
    return merged
