"""One benchmark process: import, build, preload, warm up, measure, check.

Run by ``run.py`` in a fresh interpreter per sample, so set-up time
includes import::

    python3 perfbench/worker.py --workload point_mix --seed 1 \\
        --seconds 10 --trace 0

It prints one JSON report as its last line.

Inside, one gateway serves one tenant over loopback; ``CONNECTIONS``
client threads each drive a closed loop (the next frame goes out when the
previous reply is decoded) from their seeded op stream (:mod:`ops`).
Latency is taken per wire frame, from the request write to the decoded
reply; the report carries every frame's latency, so ``run.py`` can pool
percentiles over several samples.  The main thread times a short
interpreter loop (:func:`probe`) once at the end of set-up and every
``PROBE_EVERY_S`` through the measured window, which ``run.py`` scales
times by.  After the measured window the run is checked (:mod:`check`).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import resource
import statistics
import sys
import threading
import time
import zlib
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from check import check_idempotency, check_reads, records_digest  # noqa: E402
from layers import CLIENT_THREAD_PREFIX, SERVER_LAYERS, Ledger  # noqa: E402
from model import model_metrics  # noqa: E402
from ops import SHAPES, Shape, connection_ops, preload_records, read_queries  # noqa: E402

__all__ = ["CONNECTIONS", "import_program", "run_workload"]

#: Closed-loop client connections (one per core of the reference box).
CONNECTIONS = 2
#: Iterations of the loop :func:`probe` times.
PROBE_LOOPS = 3000
#: Probes taken at the end of set-up (the median is reported).
SETUP_PROBES = 25
#: Seconds between probes in the measured window.
PROBE_EVERY_S = 0.05
#: Recoveries timed per durable run (the median is reported).
RECOVERIES = 3
#: Read queries per connection the ``model.*`` quantities are taken over.
MODEL_QUERIES = 256
TENANT = "bench"


def probe() -> float:
    """Seconds the CPU takes now for a fixed interpreter loop."""
    started = time.perf_counter()
    total = 0
    for value in range(PROBE_LOOPS):
        total += value * value
    return time.perf_counter() - started


def import_program() -> float:
    """Import the program from the checkout's ``src``; returns seconds."""
    started = time.perf_counter()
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {source}")
    if str(source) not in sys.path:
        sys.path.insert(0, str(source))
    import repro.api  # noqa: F401
    import repro.durability  # noqa: F401
    import repro.engine  # noqa: F401
    import repro.gateway  # noqa: F401

    return time.perf_counter() - started


@dataclasses.dataclass
class _ConnectionLog:
    """What one client connection saw.

    Everything kept per frame is a tuple of numbers and strings, which the
    garbage collector stops tracking, so the log does not slow the
    program's collections as it grows.
    """

    #: Measured frames: ``(kind, start, latency seconds, queries)``.
    frames: list = dataclasses.field(default_factory=list)
    #: Every ok query result as ``(specified, digest, write_version,
    #: submit_version)``: see :func:`check.check_reads`.
    reads: list = dataclasses.field(default_factory=list)
    #: ``(version, record)`` of every acknowledged insert.
    writes: list = dataclasses.field(default_factory=list)
    #: Idempotency key -> acknowledged version.
    acked: dict = dataclasses.field(default_factory=dict)
    #: Measured frames sent; frames failed or refused (warm-up included).
    sent: int = 0
    failed: int = 0
    errors: Counter = dataclasses.field(default_factory=Counter)
    coalesced: int = 0
    measured_reads: int = 0
    error: str | None = None


def run_workload(
    shape: Shape,
    seed: int,
    seconds: float,
    *,
    trace: bool = False,
    t0: float | None = None,
    max_frames: int | None = None,
) -> dict:
    """Run one sample in this process and return its report.

    *t0* is the ``time.monotonic()`` the process was started at (set-up
    time runs from it); *max_frames* caps the measured frames per
    connection, which makes a short run's counts repeatable.
    """
    t0 = time.monotonic() if t0 is None else t0
    import_s = import_program()
    from repro.durability.wal import WriteAheadLog
    from repro.errors import ReproError
    from repro.gateway import Gateway, GatewayConfig, TenantSpec
    from repro.gateway.client import GatewayClient
    from repro.gateway.tenant import Tenant
    from repro.obs import configure

    spec = TenantSpec.of(
        TENANT,
        shape.fields,
        shape.devices,
        service={"checksummed": True} if shape.checksummed else {},
    )
    # Durable tenants are built the way the crash supervisor builds them.
    factory = (
        (lambda tenant_spec: Tenant(tenant_spec, wal=WriteAheadLog()))
        if shape.durable
        else None
    )
    gateway = Gateway(
        [spec],
        GatewayConfig(max_connections=2 * CONNECTIONS),
        tenant_factory=factory,
    )
    host, port = gateway.start()
    tenant = gateway.tenants[TENANT]
    service = tenant.service

    preload_started = time.perf_counter()
    preload_writes = [
        (service.insert(record)[1], record)
        for record in preload_records(shape, seed)
    ]
    preload_s = time.perf_counter() - preload_started

    ledger = Ledger() if trace else None
    logs = [_ConnectionLog() for __ in range(CONNECTIONS)]
    clock: dict[str, float] = {}
    before: dict[str, float] = {}

    def start_window() -> None:
        # Runs once, in the last thread to reach the barrier, before any
        # measured frame is sent.
        clock["setup_s"] = time.monotonic() - t0
        # Every other thread waits at the barrier: the probe runs alone.
        clock["setup_probe_s"] = statistics.median(
            probe() for __ in range(SETUP_PROBES)
        )
        before.update(_service_counters(service))
        if ledger is not None:
            ledger.install()
        clock["start"] = time.perf_counter()
        clock["deadline"] = clock["start"] + seconds

    barrier = threading.Barrier(CONNECTIONS + 1, action=start_window)

    def send(client, op, log: _ConnectionLog, measured: bool) -> None:
        kind = op[0]
        started = time.perf_counter()
        try:
            if kind == "insert":
                __, version = client.insert(op[1], idem=op[2])
            elif kind == "batch":
                results = client.batch(op[1])
            else:
                results = [client.query(op[1])]
        except ReproError as error:
            log.failed += 1
            log.errors[getattr(error, "code", type(error).__name__)] += 1
            return
        latency = time.perf_counter() - started
        queries = 0
        if kind == "insert":
            log.writes.append((version, op[1]))
            if op[2] is not None:
                log.acked[op[2]] = version
        else:
            specified = op[1] if kind == "batch" else [op[1]]
            queries = len(specified)
            refused = len(specified) - len(results)
            for query, result in zip(specified, results):
                if result.status != "ok":
                    refused += 1
                    continue
                log.reads.append((
                    tuple(sorted(query.items())),
                    records_digest(result.records),
                    result.write_version,
                    result.submit_version,
                ))
                if measured:
                    log.coalesced += result.coalesced
                    log.measured_reads += 1
            if refused:
                log.failed += 1
                log.errors["status"] += 1
        if measured:
            log.frames.append((kind, started, latency, queries))

    def client_loop(connection: int) -> None:
        log = logs[connection]
        stream = connection_ops(shape, seed, connection)
        client = None
        try:
            client = GatewayClient(
                host,
                port,
                tenant=TENANT,
                fields=shape.fields,
                devices=shape.devices,
                trace_seed=zlib.crc32(
                    f"perfbench-trace:{shape.name}:{seed}:{connection}".encode()
                ),
            )
            for __ in range(shape.warmup_ops):
                send(client, next(stream), log, measured=False)
            barrier.wait()
            deadline = clock["deadline"]
            while time.perf_counter() < deadline and (
                max_frames is None or log.sent < max_frames
            ):
                send(client, next(stream), log, measured=True)
                log.sent += 1
        except BaseException as error:  # reported, and fails the sample
            log.error = f"connection {connection}: {error!r}"
            barrier.abort()
        finally:
            if client is not None:
                client.close()

    threads = [
        threading.Thread(
            target=client_loop,
            args=(connection,),
            name=f"{CLIENT_THREAD_PREFIX}-{connection}",
        )
        for connection in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    probes: list[float] = []
    try:
        barrier.wait()
        while time.perf_counter() < clock["deadline"] and any(
            thread.is_alive() for thread in threads
        ):
            time.sleep(PROBE_EVERY_S)
            probes.append(probe())
    except threading.BrokenBarrierError:
        pass
    for thread in threads:
        thread.join()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if ledger is not None:
        ledger.uninstall()
    report = {
        "workload": shape.name,
        "seed": seed,
        "setup_s": clock.get("setup_s", time.monotonic() - t0),
        "probe_s": {
            "setup": clock.get("setup_probe_s"),
            "window": statistics.median(probes) if probes else None,
        },
        "import_s": import_s,
        "preload_s": preload_s,
        "problems": [log.error for log in logs if log.error],
    }
    if report["problems"]:
        gateway.close()
        return report

    after = _service_counters(service)
    report.update(_measured(logs, clock["start"]))
    report["metrics"]["peak_rss_mb"] = peak_rss_mb
    report["deltas"] = {key: after[key] - before.get(key, 0.0) for key in after}
    gateway.close()

    if shape.durable:
        report.update(_recover(tenant, spec, logs))
    if ledger is not None:
        report["layers"] = _layer_metrics(ledger, report, tenant.wal)
        report["layers"].update(
            model_metrics(
                shape.fields,
                shape.devices,
                read_queries(shape, seed, MODEL_QUERIES, CONNECTIONS),
            )
        )

    # The oracle is not the program under test: run it with telemetry off.
    configure(enabled=False)
    try:
        check_started = time.perf_counter()
        reads = [read for log in logs for read in log.reads]
        writes = preload_writes + [w for log in logs for w in log.writes]
        mismatches = check_reads(shape.fields, shape.devices, writes, reads)
        report["check_s"] = time.perf_counter() - check_started
    finally:
        configure(enabled=True)
    report["checked_reads"] = len(reads)
    report["mismatches"] = len(mismatches)
    report["problems"] += [message for __, message in mismatches[:5]]
    return report


def _service_counters(service) -> dict[str, float]:
    counters = {
        "bucket_reads": float(
            sum(device.stats.bucket_reads for device in service.file.devices)
        ),
    }
    if service.cache is not None:
        stats = service.cache.stats
        counters["cache_hits"] = float(stats.exact_hits + stats.subsumption_hits)
        counters["cache_lookups"] = float(stats.lookups)
        counters["cache_invalidations"] = float(stats.write_invalidations)
    return counters


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of *values*."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def latency_metrics(latencies: dict[str, list[float]]) -> dict[str, float]:
    """p50 and p99 (ms) of each op's per-frame latencies, where it has any."""
    metrics = {}
    for name, values in latencies.items():
        if values:
            metrics[f"{name}_p50_ms"] = percentile(values, 0.50)
            metrics[f"{name}_p99_ms"] = percentile(values, 0.99)
    return metrics


def _measured(logs: list[_ConnectionLog], start: float) -> dict:
    """End-to-end metrics of the measured window and the per-frame
    latencies (ms) they were taken from."""
    frames = [frame for log in logs for frame in log.frames]
    wall = max(f[1] + f[2] for f in frames) - start
    latencies = {
        "read": [f[2] * 1000.0 for f in frames if f[0] != "insert"],
        "write": [f[2] * 1000.0 for f in frames if f[0] == "insert"],
    }
    queries = sum(f[3] for f in frames)
    attempted = sum(log.sent for log in logs)
    failed = sum(log.failed for log in logs)
    return {
        "wall_s": wall,
        "attempted": attempted,
        "failed": failed,
        "errors": dict(sum((log.errors for log in logs), Counter())),
        "error_rate": failed / attempted,
        "metrics": {"query_qps": queries / wall, **latency_metrics(latencies)},
        "latencies_ms": latencies,
        "queries": queries,
        "read_frames": len(latencies["read"]),
        "write_frames": len(latencies["write"]),
        "read_queries": sum(log.measured_reads for log in logs),
        "coalesced": sum(log.coalesced for log in logs),
    }


def _recover(tenant, spec, logs) -> dict:
    """Time rebuilding the tenant from its WAL bytes; check it is exact."""
    from repro.durability.wal import WriteAheadLog
    from repro.gateway.tenant import Tenant

    wal = tenant.wal
    data = wal.to_bytes()
    live = tenant.service.file.state_digest()
    acked = {key: v for log in logs for key, v in log.acked.items()}
    problems = check_idempotency(wal.entries(), acked)
    timings = []
    for __ in range(RECOVERIES):
        started = time.perf_counter()
        rebuilt = Tenant(spec, wal=WriteAheadLog.from_bytes(data))
        service = rebuilt.service
        timings.append(time.perf_counter() - started)
        if service.file.state_digest() != live:
            problems.append("recovered state digest differs from the live file")
        rebuilt.shutdown()
    return {
        "recover_s": statistics.median(timings),
        "recovery_problems": problems,
    }


def _layer_metrics(ledger: Ledger, report: dict, wal) -> dict[str, float]:
    """The per-layer ledger of a traced sample (see ``layers.py``)."""
    totals = ledger.totals()
    counts = ledger.counts()
    frames = counts.get("client.frames", 0.0)
    deltas = report["deltas"]

    def per_frame_us(*keys: str) -> float:
        return sum(totals.get(key, 0.0) for key in keys) / frames * 1e6

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    server_frame = counts.get("server.frame_s", 0.0)
    # The client's wait from request write to reply bytes, less the server
    # frame: sockets, thread scheduling and interpreter-lock waits.
    client_exchange = counts.get("client.call_s", 0.0) - totals.get(
        "gateway.client_marshal", 0.0
    ) - totals.get("gateway.client_decode", 0.0)
    attributed = sum(totals.get(key, 0.0) for key in SERVER_LAYERS)
    return {
        "gateway.decode_us": per_frame_us("gateway.decode"),
        "gateway.encode_us": per_frame_us("gateway.encode"),
        "gateway.server_self_us": per_frame_us("gateway.server_self"),
        "gateway.tenant_admit_us": per_frame_us("gateway.tenant_admit"),
        "gateway.wire_us": (client_exchange - server_frame) / frames * 1e6,
        "gateway.response_bytes": ratio(
            counts.get("server.response_bytes", 0.0),
            counts.get("server.frames", 0.0),
        ),
        "gateway.marshal_us": per_frame_us("gateway.marshal"),
        "gateway.client_marshal_us": per_frame_us("gateway.client_marshal"),
        "gateway.client_unmarshal_us": per_frame_us(
            "gateway.client_decode", "gateway.client_unmarshal"
        ),
        "service.handoff_us": per_frame_us("service.handoff"),
        "service.self_us": per_frame_us("service.self"),
        "service.admission_wait_us": per_frame_us("service.admission_wait"),
        "service.coalesced_ratio": ratio(
            report["coalesced"], report["read_queries"]
        ),
        "storage.cache_lookup_us": per_frame_us("storage.cache_lookup"),
        "storage.cache_hit_ratio": ratio(
            deltas.get("cache_hits", 0.0), deltas.get("cache_lookups", 0.0)
        ),
        "storage.cache_useful_ratio": ratio(
            counts.get("cache.buckets_useful", 0.0),
            counts.get("cache.buckets_handed", 0.0),
        ),
        "storage.cache_invalidations_per_write": ratio(
            deltas.get("cache_invalidations", 0.0), report["write_frames"]
        ),
        "storage.insert_us": per_frame_us("storage.insert"),
        "storage.read_us": per_frame_us("storage.read"),
        "storage.bucket_reads_per_query": ratio(
            deltas["bucket_reads"], report["read_queries"]
        ),
        "core.plan_us": per_frame_us("core.plan"),
        "core.plan_calls": counts.get("core.plan_calls", 0.0),
        "engine.plan_us": per_frame_us("engine.plan"),
        "engine.fetch_us": per_frame_us("engine.fetch"),
        "engine.fetches": counts.get("engine.fetches", 0.0),
        "engine.sharing_factor": ratio(
            counts.get("engine.naive_reads", 0.0),
            counts.get("engine.unique_reads", 0.0),
        ),
        "engine.batches_after_write_ratio": ratio(
            counts.get("engine.fetches_after_write", 0.0),
            counts.get("engine.fetches", 0.0),
        ),
        "durability.crc_read_us": per_frame_us("durability.crc_read"),
        "durability.wal_append_us": per_frame_us("durability.wal_append"),
        "durability.wal_appends": counts.get("durability.wal_appends", 0.0),
        "durability.wal_bytes_per_record": (
            ratio(wal.byte_size, wal.entry_count) if wal is not None else 0.0
        ),
        "durability.replay_us_per_entry": (
            ratio(report["recover_s"] * 1e6, wal.entry_count)
            if wal is not None else 0.0
        ),
        "setup.import_s": report["import_s"],
        "setup.preload_s": report["preload_s"],
        "trace.frames": frames,
        "trace.unattributed_ratio": ratio(
            server_frame - attributed, server_frame
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=None,
                        help="time.monotonic() when the parent spawned us")
    args = parser.parse_args(argv)
    # One CPU for the whole sample.  The program is bound by the interpreter
    # lock, so it gains nothing from a second CPU, while lock hand-offs
    # between CPUs made run-to-run spread far larger.
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
    report = run_workload(
        SHAPES[args.workload],
        args.seed,
        args.seconds,
        trace=bool(args.trace),
        t0=args.t0,
    )
    import numpy

    report["numpy"] = numpy.__version__
    print(json.dumps(report, sort_keys=True))
    # A sample whose connections failed measured nothing: no result.
    return 0 if "metrics" in report else 1


if __name__ == "__main__":
    sys.exit(main())
