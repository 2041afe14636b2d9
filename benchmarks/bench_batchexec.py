"""Throughput of the array-native batch engine vs per-query execution.

The engine (``repro.engine``) plans a whole batch of partial match
queries as one request stream — each pattern solved once per method,
each query's buckets gathered from its pattern's plan with devices
relabelled by the query's fold — looks the stream up once against the
devices' stored buckets, and touches each present (device, bucket) pair
once for the whole batch.  The serial
:class:`~repro.storage.executor.QueryExecutor` pays a Python-level
inverse-mapping loop and a full bucket scan per query.

This benchmark measures that gap at the acceptance scale — 2^18 buckets
(fields 64x64x64 on 16 devices) with batch sizes 16/64/256 — and
re-proves the contract while timing: every batched
:class:`~repro.storage.executor.ExecutionResult` is byte-identical to
the serial one (records, per-device counts, modelled times; only the
``mode`` provenance marker differs).  A second sweep runs the same
batches over :class:`~repro.durability.checksummed_store.
ChecksummedBucketStore`, so the CRC-verified read path is covered by the
same identity assertion.  A third times the batch right after a write —
one insert before each timed batch, as on a live file — and checks it
against the serial oracle after the write.

Two entry points:

* pytest-benchmark functions (collected with the other ``bench_*``
  files) timing one mid-sized batch, and
* a script mode — ``python benchmarks/bench_batchexec.py [--smoke]
  [--out BENCH_batchexec.json]`` — that writes the per-batch-size
  speedup sweep to JSON and asserts the >= 10x acceptance threshold
  (full mode only; smoke keeps the same code paths at toy scale).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import random
import statistics
import subprocess
import time

import numpy as np

from repro import BatchEngine, make_method
from repro.durability.checksummed_store import ChecksummedBucketStore
from repro.storage.executor import QueryExecutor
from repro.storage.parallel_file import PartitionedFile

FULL_FIELDS = (64, 64, 64)  # 2^18 buckets
FULL_DEVICES = 16
FULL_BATCH_SIZES = (16, 64, 256)
FULL_RECORDS = 2048

SMOKE_FIELDS = (8, 8, 8)
SMOKE_DEVICES = 8
SMOKE_BATCH_SIZES = (8, 16)
SMOKE_RECORDS = 256

#: Timed repeats per measurement: the best one is the reported rate (and
#: what the 10x gate reads); min, median and max are recorded beside it.
REPEATS = 3


def _loaded_file(fields, devices, records, seed, store_factory=None):
    method = make_method("fx", fields=fields, devices=devices)
    pf = (
        PartitionedFile(method, store_factory=store_factory)
        if store_factory is not None
        else PartitionedFile(method)
    )
    rng = random.Random(seed)
    pf.insert_all(
        [
            tuple(rng.randrange(size) for size in fields)
            for __ in range(records)
        ]
    )
    return pf


def _query_batch(pf, size, seed):
    """Mixed batch of heavy partial-match queries: 1–2 specified fields
    (the regime batching targets — light exact-match lookups are cheap
    either way), with ~10% duplicates as a realistic workload would have.
    """
    fields = pf.filesystem.field_sizes
    rng = random.Random(seed)
    queries = []
    for index in range(size):
        if queries and rng.random() < 0.1:
            queries.append(rng.choice(queries))
            continue
        n_spec = rng.choice((1, 1, 2))
        chosen = rng.sample(range(len(fields)), n_spec)
        queries.append(
            pf.query({i: rng.randrange(fields[i]) for i in chosen})
        )
    return queries


def assert_byte_identical(batched, serial):
    assert batched.records == serial.records
    assert batched.buckets_per_device == serial.buckets_per_device
    assert batched.response_time_ms == serial.response_time_ms
    assert batched.total_service_ms == serial.total_service_ms
    b, s = batched.to_dict(), serial.to_dict()
    b.pop("mode"), s.pop("mode")
    assert b == s


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def bench_batched_engine_64(benchmark):
    pf = _loaded_file(SMOKE_FIELDS, SMOKE_DEVICES, SMOKE_RECORDS, seed=1)
    queries = _query_batch(pf, 64, seed=2)
    engine = BatchEngine(pf)
    report = benchmark(lambda: engine.execute(queries))
    assert len(report.results) == 64


def bench_serial_executor_64(benchmark):
    pf = _loaded_file(SMOKE_FIELDS, SMOKE_DEVICES, SMOKE_RECORDS, seed=1)
    queries = _query_batch(pf, 64, seed=2)
    executor = QueryExecutor(pf)
    results = benchmark(
        lambda: [executor.execute(query) for query in queries]
    )
    assert len(results) == 64


# ----------------------------------------------------------------------
# Script mode: write BENCH_batchexec.json
# ----------------------------------------------------------------------
def _timed(run) -> tuple[list[float], object]:
    """*run* timed ``REPEATS`` times: the samples in seconds and the last
    result."""
    samples = []
    for __ in range(REPEATS):
        started = time.perf_counter()
        result = run()
        samples.append(time.perf_counter() - started)
    return samples, result


def _spread(samples: list[float]) -> dict:
    """Min, median and max of timing *samples*, in ms."""
    return {
        "min_ms": round(min(samples) * 1000.0, 3),
        "median_ms": round(statistics.median(samples) * 1000.0, 3),
        "max_ms": round(max(samples) * 1000.0, 3),
    }


def _measure(pf, crc, batch_size, seed) -> dict:
    queries = _query_batch(pf, batch_size, seed)
    serial = QueryExecutor(pf)
    engine = BatchEngine(pf)

    # Best-of on every side tames timer noise; the spread is kept beside it.
    serial_samples, serial_results = _timed(
        lambda: [serial.execute(query) for query in queries]
    )
    engine.execute(queries)  # warm present-set and pattern-plan caches
    batched_samples, report = _timed(lambda: engine.execute(queries))

    for batched_result, serial_result in zip(report.results, serial_results):
        assert_byte_identical(batched_result, serial_result)

    # Same batch through the CRC-verified store: identity again, each
    # repeat on a fresh engine (present sets listed cold).
    crc_serial = QueryExecutor(crc)
    crc_queries = [
        crc.query(
            {
                i: value
                for i, value in enumerate(query.values)
                if value is not None
            }
        )
        for query in queries
    ]
    crc_samples, crc_report = _timed(
        lambda: BatchEngine(crc).execute(crc_queries)
    )
    for batched_result, query in zip(crc_report.results, crc_queries):
        assert_byte_identical(batched_result, crc_serial.execute(query))

    # Right after a write: the engine relists the written device's present
    # set.  The inserts are deleted again so later batch sizes see the same
    # file.  This runs after the CRC shots: run before them, this section
    # halved their rate at batch size 16.
    rng = random.Random(seed)
    fields = pf.filesystem.field_sizes
    written = []
    after_write_samples = []
    for __ in range(REPEATS):
        record = tuple(rng.randrange(size) for size in fields)
        pf.insert(record)
        written.append(record)
        started = time.perf_counter()
        after_write = engine.execute(queries)
        after_write_samples.append(time.perf_counter() - started)
    for batched_result, query in zip(after_write.results, queries):
        assert_byte_identical(batched_result, serial.execute(query))
    for record in written:
        assert pf.delete(record)

    serial_s = min(serial_samples)
    batched_s = min(batched_samples)
    return {
        "batch_size": batch_size,
        "serial_qps": round(batch_size / serial_s, 1),
        "batched_qps": round(batch_size / batched_s, 1),
        "speedup": round(serial_s / batched_s, 2),
        "after_write_qps": round(batch_size / min(after_write_samples), 1),
        "crc_qps": round(batch_size / min(crc_samples), 1),
        "timings": {
            "serial": _spread(serial_samples),
            "batched": _spread(batched_samples),
            "after_write": _spread(after_write_samples),
            "crc": _spread(crc_samples),
        },
        "planned_reads": report.planned_reads,
        "unique_reads": report.unique_reads,
        "sharing_factor": round(report.sharing_factor, 3),
        "duplicates_removed": report.duplicates_removed,
        "byte_identical": True,
    }


def environment(repeats: int) -> dict:
    """What a benchmark ran on, so numbers from two runs can be compared."""
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=pathlib.Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        described = ""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "git_sha": described or None,
        "repeats": repeats,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="toy filesystem for CI; same code paths, no 10x assertion",
    )
    parser.add_argument("--out", default="BENCH_batchexec.json")
    args = parser.parse_args(argv)

    if args.smoke:
        fields, devices = SMOKE_FIELDS, SMOKE_DEVICES
        batch_sizes, records = SMOKE_BATCH_SIZES, SMOKE_RECORDS
    else:
        fields, devices = FULL_FIELDS, FULL_DEVICES
        batch_sizes, records = FULL_BATCH_SIZES, FULL_RECORDS

    pf = _loaded_file(fields, devices, records, seed=1)
    crc = _loaded_file(
        fields, devices, records, seed=1,
        store_factory=ChecksummedBucketStore,
    )
    bucket_count = 1
    for size in fields:
        bucket_count *= size
    result = {
        "mode": "smoke" if args.smoke else "full",
        "environment": environment(REPEATS),
        "fields": list(fields),
        "devices": devices,
        "bucket_count": bucket_count,
        "records": records,
        "sweep": [
            _measure(pf, crc, batch_size, seed=100 + batch_size)
            for batch_size in batch_sizes
        ],
    }
    if not args.smoke:
        for row in result["sweep"]:
            assert row["speedup"] >= 10.0, (
                f"batch size {row['batch_size']}: speedup {row['speedup']}x "
                "below the 10x acceptance threshold"
            )
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    for row in result["sweep"]:
        print(
            f"batch {row['batch_size']:>4}: "
            f"{row['batched_qps']:>10,.1f} q/s batched vs "
            f"{row['serial_qps']:>8,.1f} q/s serial -> x{row['speedup']} "
            f"(after a write {row['after_write_qps']:,.1f} q/s, "
            f"CRC store {row['crc_qps']:,.1f} q/s, "
            f"sharing x{row['sharing_factor']})"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
