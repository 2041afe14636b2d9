"""Wire-level serving benchmark: one command, one workload, one result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload point_mix --seed 1 --seconds 30 --trace 0

Every sample runs in a fresh interpreter (``worker.py``), pinned to one
CPU, so set-up time includes import.  With ``--trace 0`` the run splits
``--seconds`` between ``MEASURED_SAMPLES`` samples and reports the
end-to-end metrics:

* ``query_qps``: queries answered over the measured time of all samples;
* ``read_p50_ms`` and ``read_p99_ms``: nearest rank over the latency of
  every read wire frame of every measured sample, which must number at
  least ``TAIL_FRAMES`` (ten frames beyond the p99);
* ``setup_s`` and ``peak_rss_mb``: the median over the samples.

Times are scaled to a reference CPU speed.  On a shared host the CPU runs
up to 1.7x slower for spells of ten seconds to minutes, longer than a
run, so raw figures of one commit drift between runs by more than a
change worth detecting.  Each sample therefore times a fixed interpreter
loop (``worker.probe``) at the end of set-up and every 50 ms through its
measured window, and the end-to-end times it measured (frame latencies,
measured time, set-up time) are multiplied by ``REFERENCE_PROBE_S`` over
the median probe of the same phase (set-up or window): the figures read
as on a CPU that runs the loop in that time.  Recovery time and the
per-layer ledger are reported as measured.
On eight repeated point_mix samples on a two-vCPU shared VM, throughput
and window probe correlated at -0.94, and scaling cut the spread of
throughput from 15% to 6% and of set-up time from 21% to 9%.  The
unscaled figures are printed beside the scaled ones.

With ``--trace 1`` it splits ``--seconds`` between an untraced and a
traced sample of the same seed and reports the per-layer ledger (see
``layers.py``), the paper's modelled quantities (``model.*``) and the
untraced write latency, recovery time and error rate.

Output: a readable report with the sample count beside every percentile,
a ``perfbench-env`` JSON line (versions, CPU count, git SHA, seed, sample
count and the spread of each metric across the run's samples), and, as
the last line, ``{"correct", "attempted", "failed", "metrics"}``.  The
run exits non-zero without that line if a sample fails or no program
source is found beside the benchmark.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from ops import SHAPES  # noqa: E402
from worker import latency_metrics  # noqa: E402

#: Samples the ``--trace 0`` window is split between.
MEASURED_SAMPLES = 3
#: Probe time (seconds) of the CPU speed figures are scaled to: about what
#: a two-vCPU shared VM measured in its fast spells.
REFERENCE_PROBE_S = 150e-6
#: Fewest frames of one op a p99 is taken over (ten samples beyond it).
TAIL_FRAMES = 1000
#: Upper bound on one sample's life beyond its measured window.
SAMPLE_SLACK_S = 60.0

END_TO_END = {
    "query_qps": "1/s",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Printed beside the end-to-end metrics where the workload has them.
EXTRA_UNITS = {
    "write_p50_ms": "ms",
    "write_p99_ms": "ms",
    "error_rate": "ratio",
    "recover_s": "s",
}

#: Per-layer metrics of the traced run (``--trace 1``) and their units.
#: ``*_us`` layer times are self time per wire frame, averaged over every
#: frame of the traced sample.
PER_LAYER = {
    "gateway.decode_us": "us",
    "gateway.encode_us": "us",
    "gateway.server_self_us": "us",
    "gateway.tenant_admit_us": "us",
    "gateway.wire_us": "us",
    "gateway.response_bytes": "bytes",
    "gateway.marshal_us": "us",
    "gateway.client_marshal_us": "us",
    "gateway.client_unmarshal_us": "us",
    "service.handoff_us": "us",
    "service.self_us": "us",
    "service.admission_wait_us": "us",
    "service.coalesced_ratio": "ratio",
    "storage.cache_lookup_us": "us",
    "storage.cache_hit_ratio": "ratio",
    "storage.cache_useful_ratio": "ratio",
    "storage.cache_invalidations_per_write": "count",
    "storage.insert_us": "us",
    "storage.read_us": "us",
    "storage.bucket_reads_per_query": "count",
    "core.plan_us": "us",
    "core.plan_calls": "count",
    "core.qualified_per_query": "count",
    "engine.plan_us": "us",
    "engine.fetch_us": "us",
    "engine.fetches": "count",
    "engine.sharing_factor": "ratio",
    "engine.batches_after_write_ratio": "ratio",
    "durability.crc_read_us": "us",
    "durability.wal_append_us": "us",
    "durability.wal_appends": "count",
    "durability.wal_bytes_per_record": "bytes",
    "durability.replay_us_per_entry": "us",
    "setup.import_s": "s",
    "setup.preload_s": "s",
    "trace.frames": "count",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_ratio": "ratio",
    "model.load_factor": "ratio",
    "model.strict_optimal_ratio": "ratio",
    "model.response_ms": "model_ms",
    "untraced.write_p50_ms": "ms",
    "untraced.write_p99_ms": "ms",
    "untraced.recover_s": "s",
    "untraced.error_rate": "ratio",
}


def sample(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one worker process to completion and return its report."""
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--trace", str(trace),
        "--t0", repr(time.monotonic()),
    ]
    completed = subprocess.run(
        command,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=seconds + SAMPLE_SLACK_S,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"worker sample exited {completed.returncode}"
        )
    return json.loads(lines[-1])


def spread(values: list[float]) -> float | None:
    """Inter-quartile range over the median (``None`` below 2 values)."""
    if len(values) < 2:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else None


def git_sha() -> str | None:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


@dataclasses.dataclass
class Collected:
    """What one invocation measured, ready to print."""

    #: Worker reports of the measured samples.
    runs: list[dict]
    #: The result metrics, in table order, and their units.
    metrics: dict[str, float]
    units: dict[str, str]
    #: Printed beside the metrics, not part of the result line.
    shown: dict[str, float | None]
    samples: dict[str, int]
    spreads: dict[str, float | None]
    processes: int
    #: Reasons the run's figures cannot be trusted, beside the samples' own.
    problems: list[str] = dataclasses.field(default_factory=list)


def end_to_end(workload: str, seed: int, seconds: float) -> Collected:
    runs = [
        sample(workload, seed, seconds / MEASURED_SAMPLES, 0)
        for __ in range(MEASURED_SAMPLES)
    ]
    setups = [run["setup_s"] for run in runs]
    # How much faster than measured each sample's phases would have run
    # on the reference CPU.
    setup_scale = [REFERENCE_PROBE_S / run["probe_s"]["setup"] for run in runs]
    window_scale = [
        REFERENCE_PROBE_S / (run["probe_s"]["window"] or run["probe_s"]["setup"])
        for run in runs
    ]
    per_sample = {
        name: [run["metrics"][name] for run in runs]
        for name in runs[0]["metrics"]
    }

    def frames_ms(scales):
        return {
            op: [ms * k for run, k in zip(runs, scales)
                 for ms in run["latencies_ms"][op]]
            for op in ("read", "write")
        }

    def run_values(setup_scales, window_scales):
        return {
            "query_qps": sum(run["queries"] for run in runs) / sum(
                run["wall_s"] * k for run, k in zip(runs, window_scales)
            ),
            "setup_s": statistics.median(
                s * k for s, k in zip(setups, setup_scales)
            ),
            "peak_rss_mb": statistics.median(per_sample["peak_rss_mb"]),
            **latency_metrics(frames_ms(window_scales)),
        }

    values = run_values(setup_scale, window_scale)
    unscaled = run_values([1.0] * len(runs), [1.0] * len(runs))
    pooled = frames_ms([1.0] * len(runs))
    samples = {"query_qps": sum(run["queries"] for run in runs)}
    problems = []
    for op, latencies in pooled.items():
        if latencies:
            samples[f"{op}_p50_ms"] = samples[f"{op}_p99_ms"] = len(latencies)
            if len(latencies) < TAIL_FRAMES:
                problems.append(
                    f"{len(latencies)} {op} frames: a p99 needs {TAIL_FRAMES}"
                )
    spreads = {name: spread(v) for name, v in per_sample.items()}
    spreads["setup_s"] = spread(setups)
    spreads["window_scale"] = spread(window_scale)
    return Collected(
        runs=runs,
        metrics={name: values[name] for name in END_TO_END},
        units={
            **END_TO_END,
            **EXTRA_UNITS,
            **{f"unscaled.{k}": v for k, v in {**END_TO_END, **EXTRA_UNITS}.items()},
        },
        shown={
            "write_p50_ms": values.get("write_p50_ms"),
            "write_p99_ms": values.get("write_p99_ms"),
            **{
                f"unscaled.{name}": unscaled.get(name)
                for name in (*END_TO_END, "write_p50_ms", "write_p99_ms")
                if name != "peak_rss_mb"
            },
            "error_rate": sum(r["failed"] for r in runs)
            / sum(r["attempted"] for r in runs),
            "recover_s": statistics.median(r["recover_s"] for r in runs)
            if "recover_s" in runs[0] else None,
        },
        samples=dict(samples, setup_s=len(setups)),
        spreads=spreads,
        processes=len(setups),
        problems=problems,
    )


def per_layer(workload: str, seed: int, seconds: float) -> Collected:
    plain = sample(workload, seed, seconds / 2, 0)
    traced = sample(workload, seed, seconds / 2, 1)
    metrics = dict(traced["layers"])
    metrics["trace.overhead_ratio"] = (
        traced["metrics"]["query_qps"] / plain["metrics"]["query_qps"]
    )
    metrics["untraced.error_rate"] = plain["error_rate"]
    for name in ("write_p50_ms", "write_p99_ms"):
        metrics[f"untraced.{name}"] = plain["metrics"].get(name, 0.0)
    metrics["untraced.recover_s"] = plain.get("recover_s", 0.0)
    samples = {
        "untraced.write_p50_ms": plain["write_frames"],
        "untraced.write_p99_ms": plain["write_frames"],
        "trace.frames": int(metrics["trace.frames"]),
    }
    return Collected(
        runs=[plain, traced],
        metrics={name: metrics[name] for name in PER_LAYER},
        units=dict(PER_LAYER),
        shown={},
        samples=samples,
        spreads={},
        processes=2,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Wire-level serving benchmark (see module docstring)."
    )
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    collect = per_layer if args.trace else end_to_end
    try:
        got = collect(args.workload, args.seed, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    runs = got.runs
    problems = list(got.problems)
    problems += [p for run in runs for p in run["problems"]]
    problems += [p for run in runs for p in run.get("recovery_problems", [])]
    mismatches = sum(run["mismatches"] for run in runs)
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs) + mismatches

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, value in {**got.metrics, **got.shown}.items():
        if value is not None:
            count = f"  n={got.samples[name]}" if name in got.samples else ""
            print(f"  {name:40s} {value:14.6f} {got.units[name]}{count}")
    codes = {code: n for run in runs for code, n in run["errors"].items()}
    print(f"  checked reads {sum(r['checked_reads'] for r in runs)}, "
          f"mismatches {mismatches}, failed frames "
          f"{failed - mismatches} of {attempted}" + (f" {codes}" if codes else ""))
    for problem in problems[:10]:
        print(f"  PROBLEM {problem}")
    env = {
        "python": platform.python_version(),
        "numpy": runs[0].get("numpy"),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "processes": got.processes,
        "sample_counts": got.samples,
        "spread_iqr_over_median": got.spreads,
        "check_s": [round(run["check_s"], 3) for run in runs],
    }
    print("perfbench-env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": got.units[name]}
            for name, value in got.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
