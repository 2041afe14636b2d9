"""Instrumentation overhead of the telemetry layer on the hot query path.

The observability subsystem (``repro.obs``) wraps the vectorised query
executor in spans and histogram observations.  This benchmark measures how
much that costs: it streams the same workload through
:class:`~repro.storage.executor.QueryExecutor` with telemetry disabled and
enabled, and reports the median of the paired enabled/disabled time
ratios.  Each pair times one short chunk of the workload on each side back
to back, the disabled side first in even pairs and the enabled side first
in odd pairs, so host drift lands on both sides of the ratio.

It also reports the whole request path, ungated: a seeded point_mix-shaped
frame stream (F=(16,16,16), M=16, 4,096 records, one insert in four, 30%
of queries from a 16-query hot pool) through ``Gateway._handle`` in this
process, paired the same way: two gateways, one served with telemetry off
and one with it on, receive the same frames in the same order.

Two entry points:

* pytest-benchmark functions (collected with the other ``bench_*`` files)
  timing the executor sweep under both telemetry settings, and
* a script mode — ``python benchmarks/bench_obs_overhead.py [--smoke]
  [--out BENCH_obs.json]`` — that writes the measured overhead to JSON.
  Full mode asserts the acceptance floor: enabling telemetry must cost
  < 5% on the vectorised engine path, in the median paired ratio.
  ``--smoke`` runs a smaller grid and a shorter frame stream for CI and
  only checks that both paths execute and agree, because tiny absolute
  times make percentage overhead meaningless on shared runners.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import time

from repro import obs
from repro.core.fx import FXDistribution
from repro.gateway import Gateway, TenantSpec, protocol
from repro.hashing.fields import FileSystem
from repro.query.workload import QueryWorkload, WorkloadSpec
from repro.storage.executor import QueryExecutor
from repro.storage.parallel_file import PartitionedFile

#: Full mode: 8^5 buckets over 32 devices, enough work per query for the
#: per-span cost to be measured against real engine time.
FULL_FS = FileSystem.uniform(5, 8, m=32)
FULL_QUERIES = 400
#: Smoke mode: small grid, same code paths, fast enough for a CI step.
SMOKE_FS = FileSystem.uniform(3, 4, m=8)
SMOKE_QUERIES = 60

BENCH_FS = FileSystem.uniform(4, 8, m=16)

#: The wire-path tenant: point_mix's file and preload.
WIRE_FIELDS = (16, 16, 16)
WIRE_DEVICES = 16
WIRE_PRELOAD = 4096
WIRE_FRAMES = 2000
SMOKE_WIRE_FRAMES = 200

#: Each off/on pair times one chunk per side, back to back: a pair takes
#: well under a second, so host drift lands on both sides of its ratio
#: (timing whole sweeps swung the ratio by -22% to +14% on 2 vCPUs).
CHUNK_QUERIES = 25
CHUNK_FRAMES = 100


def _build(fs: FileSystem, n_queries: int):
    method = FXDistribution(fs)
    pf = PartitionedFile(method)
    workload = QueryWorkload(
        fs, WorkloadSpec(spec_probability=0.5, exclude_trivial=True, seed=7)
    )
    return QueryExecutor(pf), workload.take(n_queries)


def _sweep(executor: QueryExecutor, queries) -> int:
    total = 0
    for query in queries:
        total += executor.execute(query).largest_response
    return total


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def bench_executor_telemetry_on(benchmark):
    executor, queries = _build(BENCH_FS, 50)
    obs.configure(enabled=True, reset=True)
    total = benchmark(_sweep, executor, queries)
    assert total > 0


def bench_executor_telemetry_off(benchmark):
    executor, queries = _build(BENCH_FS, 50)
    obs.configure(enabled=True, reset=True)
    try:
        obs.configure(enabled=False)
        total = benchmark(_sweep, executor, queries)
    finally:
        obs.configure(enabled=True)
    assert total > 0


# ----------------------------------------------------------------------
# Script mode: write BENCH_obs.json
# ----------------------------------------------------------------------
def _paired(run, chunks) -> dict:
    """Time ``run(enabled, chunk)`` with telemetry off and on per chunk.

    Each chunk is one pair: the off side runs first in even pairs, the on
    side in odd ones.  *run* returns ``(seconds, outcome)``; the outcomes
    of the two sides must agree.  The ring is reset once, so the on side
    reaches the budget and pays for eviction as a long-lived process does.
    """
    obs.configure(reset=True)
    seconds = {False: 0.0, True: 0.0}
    ratios = []
    try:
        for pair, chunk in enumerate(chunks):
            timed = {}
            for enabled in (False, True) if pair % 2 == 0 else (True, False):
                obs.configure(enabled=enabled)
                timed[enabled] = run(enabled, chunk)
                seconds[enabled] += timed[enabled][0]
            if timed[True][1] != timed[False][1]:
                raise RuntimeError("telemetry changed results")
            ratios.append(timed[True][0] / timed[False][0])
    finally:
        obs.configure(enabled=True)
    return {
        "pairs": len(ratios),
        "disabled_seconds": seconds[False],
        "enabled_seconds": seconds[True],
        "paired_ratios": ratios,
        "overhead_fraction": statistics.median(ratios) - 1.0,
    }


def _measure(fs: FileSystem, n_queries: int, repeats: int) -> dict:
    executor, queries = _build(fs, n_queries)
    # Warm the evaluator/inverse caches so both sides hit the same fast path.
    _sweep(executor, queries)
    chunks = [
        queries[start:start + CHUNK_QUERIES]
        for start in range(0, n_queries, CHUNK_QUERIES)
    ] * repeats

    def run(enabled: bool, chunk) -> tuple[float, int]:
        started = time.perf_counter()
        total = _sweep(executor, chunk)
        return time.perf_counter() - started, total

    result = _paired(run, chunks)
    return {
        "filesystem": fs.describe(),
        "bucket_count": fs.bucket_count,
        "queries": n_queries,
        "repeats": repeats,
        **result,
        "disabled_queries_per_sec": n_queries * repeats
        / result["disabled_seconds"],
        "enabled_queries_per_sec": n_queries * repeats
        / result["enabled_seconds"],
        "overhead_percent": result["overhead_fraction"] * 100.0,
    }


def _wire_query(rng: random.Random) -> dict[str, int]:
    """A non-trivial query fixing each field with probability 0.85."""
    while True:
        fixed = [i for i in range(len(WIRE_FIELDS)) if rng.random() < 0.85]
        if 0 < len(fixed) < len(WIRE_FIELDS):
            return {str(i): rng.randrange(WIRE_FIELDS[i]) for i in fixed}


def _wire_frames(count: int) -> list[dict]:
    """The seeded point_mix-shaped request stream, as decoded frames."""
    rng = random.Random("obs-overhead-wire")
    hot = [_wire_query(rng) for __ in range(16)]
    frames = []
    for index in range(1, count + 1):
        if index % 4 == 0:
            op = "insert"
            body = {"record": [rng.randrange(1 << 20) for __ in WIRE_FIELDS]}
        else:
            op = "query"
            specified = (
                hot[rng.randrange(len(hot))]
                if rng.random() < 0.3
                else _wire_query(rng)
            )
            body = {"specified": specified}
        frames.append(
            protocol.request(
                op, request_id=index, tenant="t", trace=index, **body
            )
        )
    return frames


def _wire_gateway() -> Gateway:
    """A gateway whose one tenant holds point_mix's preload."""
    rng = random.Random("obs-overhead-preload")
    gateway = Gateway([TenantSpec.of("t", WIRE_FIELDS, WIRE_DEVICES)])
    service = gateway.tenants["t"].service
    for __ in range(WIRE_PRELOAD):
        service.insert(tuple(rng.randrange(1 << 20) for __ in WIRE_FIELDS))
    return gateway


def _measure_wire(n_frames: int, repeats: int) -> dict:
    # One gateway per side, fed the same frames in the same order, so the
    # two evolve through the same states.
    total = n_frames * repeats
    gateways = {enabled: _wire_gateway() for enabled in (False, True)}
    frames = {enabled: _wire_frames(total) for enabled in (False, True)}

    def run(enabled: bool, start: int) -> tuple[float, list[int]]:
        handle = gateways[enabled]._handle
        chunk = frames[enabled][start:start + CHUNK_FRAMES]
        started = time.perf_counter()
        replies = [handle(frame) for frame in chunk]
        elapsed = time.perf_counter() - started
        if not all(reply["ok"] for reply in replies):
            raise RuntimeError("a frame failed")
        return elapsed, [
            len(reply["result"].get("record_values", ())) for reply in replies
        ]

    try:
        result = _paired(run, range(0, total, CHUNK_FRAMES))
    finally:
        for gateway in gateways.values():
            gateway.close()
    return {
        "filesystem": f"F={WIRE_FIELDS}, M={WIRE_DEVICES}",
        "preload": WIRE_PRELOAD,
        "frames": total,
        **result,
        "disabled_frames_per_sec": total / result["disabled_seconds"],
        "enabled_frames_per_sec": total / result["enabled_seconds"],
        "overhead_percent": result["overhead_fraction"] * 100.0,
        "gated": False,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small grid for CI (correctness gate, no overhead floor)",
    )
    parser.add_argument("--out", default="BENCH_obs.json")
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="passes over each path's workload, each pass timed as "
        "alternating off/on pairs of chunks",
    )
    args = parser.parse_args(argv)

    fs = SMOKE_FS if args.smoke else FULL_FS
    n_queries = SMOKE_QUERIES if args.smoke else FULL_QUERIES
    repeats = max(1, args.repeats)
    result = _measure(fs, n_queries, repeats)
    result["mode"] = "smoke" if args.smoke else "full"
    result["wire"] = _measure_wire(
        SMOKE_WIRE_FRAMES if args.smoke else WIRE_FRAMES, repeats
    )
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    wire = result["wire"]
    print(
        f"{result['mode']}: {result['queries']} queries on "
        f"{result['filesystem']}; disabled "
        f"{result['disabled_queries_per_sec']:,.0f}/s, enabled "
        f"{result['enabled_queries_per_sec']:,.0f}/s, overhead "
        f"{result['overhead_percent']:+.2f}% (median of {result['pairs']} "
        f"paired ratios) -> {args.out}"
    )
    print(
        f"wire path (reported, not gated): {wire['frames']} frames through "
        f"Gateway._handle; disabled {wire['disabled_frames_per_sec']:,.0f}/s, "
        f"enabled {wire['enabled_frames_per_sec']:,.0f}/s, overhead "
        f"{wire['overhead_percent']:+.2f}%"
    )
    if not args.smoke and result["overhead_fraction"] >= 0.05:
        print("FAIL: telemetry overhead above the 5% acceptance ceiling")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
