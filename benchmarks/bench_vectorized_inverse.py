"""Vectorised inverse mapping vs the reference iterator.

Three paths enumerate a device's qualified buckets: the reference iterator
(the serial oracle's planner), the method entry
``SeparableMethod.qualified_on_device`` (its per-pattern solver serves
single-query cache misses) and the array kernel.  Two entry points:

* pytest-benchmark functions (collected with the other ``bench_*`` files)
  timing the paths on a small file system and asserting bit-identical
  output, and
* a script mode — ``python benchmarks/bench_vectorized_inverse.py
  [--smoke] [--out BENCH_inverse.json]`` — that measures buckets/sec for
  all three over every device of a partial match query, checks the other
  two bit-identical to the iterator, and writes the speedups to JSON with
  the environment.  The gated ``speedup`` is array over iterator.  Full
  mode uses a 2^18-bucket file system (the acceptance configuration: the
  array path must hold a >= 10x speedup there); ``--smoke`` shrinks the
  grid so CI can run it on every push and still fail loudly if a fast
  path stops matching the iterator.
"""

from __future__ import annotations

import argparse
import json
import time

from bench_batchexec import environment

from repro.core.fx import FXDistribution
from repro.core.inverse import (
    separable_qualified_on_device,
    separable_qualified_on_device_array,
)
from repro.distribution.modulo import ModuloDistribution
from repro.hashing.fields import FileSystem
from repro.query.partial_match import PartialMatchQuery

#: Full mode: 8^6 = 2^18 buckets over 32 devices, one specified field.
FULL_FS = FileSystem.uniform(6, 8, m=32)
#: Smoke mode: 2^12 buckets — small enough for a CI step, same code paths.
SMOKE_FS = FileSystem.uniform(4, 8, m=16)

BENCH_FS = FileSystem.uniform(5, 8, m=32)
BENCH_QUERY = PartialMatchQuery.from_dict(BENCH_FS, {0: 1})


def _sweep_iterator(method, query) -> int:
    return sum(
        1
        for device in range(method.filesystem.m)
        for __ in separable_qualified_on_device(method, device, query)
    )


def _sweep_method(method, query) -> int:
    return sum(
        1
        for device in range(method.filesystem.m)
        for __ in method.qualified_on_device(device, query)
    )


def _sweep_array(method, query) -> int:
    return sum(
        separable_qualified_on_device_array(method, device, query).shape[0]
        for device in range(method.filesystem.m)
    )


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def bench_inverse_array_fx(benchmark):
    fx = FXDistribution(BENCH_FS)
    total = benchmark(_sweep_array, fx, BENCH_QUERY)
    assert total == BENCH_QUERY.qualified_count


def bench_inverse_iterator_fx(benchmark):
    fx = FXDistribution(BENCH_FS)
    total = benchmark(_sweep_iterator, fx, BENCH_QUERY)
    assert total == BENCH_QUERY.qualified_count


def bench_inverse_method_fx(benchmark):
    fx = FXDistribution(BENCH_FS)
    total = benchmark(_sweep_method, fx, BENCH_QUERY)
    assert total == BENCH_QUERY.qualified_count


def bench_inverse_array_modulo(benchmark):
    modulo = ModuloDistribution(BENCH_FS)
    total = benchmark(_sweep_array, modulo, BENCH_QUERY)
    assert total == BENCH_QUERY.qualified_count


# ----------------------------------------------------------------------
# Script mode: write BENCH_inverse.json
# ----------------------------------------------------------------------
def _check_bit_identical(method, query) -> None:
    for device in range(method.filesystem.m):
        expected = list(separable_qualified_on_device(method, device, query))
        got = separable_qualified_on_device_array(method, device, query)
        assert [tuple(row) for row in got.tolist()] == expected, (
            f"array kernel diverged from iterator on device {device}"
        )
        assert list(method.qualified_on_device(device, query)) == expected, (
            f"method entry diverged from iterator on device {device}"
        )


def _measure(fs: FileSystem, repeats: int) -> dict:
    fx = FXDistribution(fs)
    query = PartialMatchQuery.from_dict(fs, {0: 1})
    _check_bit_identical(fx, query)

    sweeps = {
        "iterator": _sweep_iterator,
        "method": _sweep_method,
        "array": _sweep_array,
    }
    seconds: dict[str, list[float]] = {name: [] for name in sweeps}
    buckets = query.qualified_count
    for __ in range(repeats):
        for name, sweep in sweeps.items():
            started = time.perf_counter()
            assert sweep(fx, query) == buckets
            seconds[name].append(time.perf_counter() - started)
    best = {name: min(times) for name, times in seconds.items()}
    result = {
        "environment": environment(repeats),
        "filesystem": fs.describe(),
        "bucket_count": fs.bucket_count,
        "query": query.describe(),
        "qualified_buckets": buckets,
    }
    for name in sweeps:
        result[f"{name}_seconds"] = best[name]
        result[f"{name}_buckets_per_sec"] = buckets / best[name]
    result["speedup"] = best["iterator"] / best["array"]
    result["method_speedup"] = best["iterator"] / best["method"]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small file system for CI (correctness gate, no speedup floor)",
    )
    parser.add_argument("--out", default="BENCH_inverse.json")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    fs = SMOKE_FS if args.smoke else FULL_FS
    result = _measure(fs, max(1, args.repeats))
    result["mode"] = "smoke" if args.smoke else "full"
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    print(
        f"{result['mode']}: {result['qualified_buckets']} buckets on "
        f"{result['filesystem']}; iterator "
        f"{result['iterator_buckets_per_sec']:,.0f}/s, method "
        f"{result['method_buckets_per_sec']:,.0f}/s "
        f"({result['method_speedup']:.1f}x), array "
        f"{result['array_buckets_per_sec']:,.0f}/s, "
        f"speedup {result['speedup']:.1f}x -> {args.out}"
    )
    if not args.smoke and result["speedup"] < 10.0:
        print("FAIL: full-mode speedup below the 10x acceptance floor")
        return 1
    if args.smoke and result["speedup"] < 1.0:
        # Even tiny grids should never be slower than the Python iterator.
        print("FAIL: smoke-mode fast path slower than the iterator")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
