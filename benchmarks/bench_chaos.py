"""Availability and latency versus wire-fault rate, invariants proven.

The chaos harness (``repro.chaos``) injects deterministic wire faults
(connection refusals, request/response resets, torn and delayed frames,
duplicated responses) between resilient clients and a WAL-durable
gateway, with a crash-restart in the middle of the run.  This benchmark
sweeps the per-kind fault rate and records what resilience costs: the
fraction of ops that still succeed (availability — expected 1.0 as long
as the retry budget outlasts the fault schedule), query latency
percentiles (inflated by retries and backoff), and retry/reconnect/dedup
totals.  Every measured run re-proves the chaos invariants — zero stale
reads, no lost or doubly-applied acknowledged write — and asserts the
canonical report digest is reproducible for the seed.

Two entry points:

* a pytest-benchmark function (collected with the other ``bench_*``
  files) timing one crash-restart chaos run, and
* a script mode — ``python benchmarks/bench_chaos.py [--smoke]
  [--out BENCH_chaos.json]`` — that writes the fault-rate sweep to JSON.
"""

from __future__ import annotations

import argparse
import json

from repro import obs
from repro.chaos import ChaosSpec, NetFaultPlan, run_chaos_load
from repro.gateway.tenant import TenantSpec
from repro.runtime import RetryPolicy
from repro.service import LoadSpec

FULL_RATES = (0.0, 0.03, 0.06, 0.1)
SMOKE_RATES = (0.0, 0.06)

TENANTS = ("alpha", "beta")
FIELDS = (8, 8)
DEVICES = 8
SEED = 17

RETRY = RetryPolicy(max_attempts=6, base_delay_ms=2.0, max_delay_ms=25.0)


def _run_chaos(rate: float, requests: int, crash: bool):
    """One measured chaos run; returns the verified report."""
    obs.reset_telemetry()
    spec = ChaosSpec(
        load=LoadSpec(
            clients=2,
            requests_per_client=requests,
            seed=SEED,
            write_every=3,
            preload=4,
        ),
        faults=(
            NetFaultPlan.none()
            if rate == 0.0
            else NetFaultPlan.uniform(rate, seed=SEED, refuse_rate=rate)
        ),
        crash_at=0.5 if crash else None,
        torn_tail=crash,
        retry=RETRY,
        timeout_s=10.0,
    )
    report = run_chaos_load(
        [TenantSpec.of(name, FIELDS, DEVICES) for name in TENANTS], spec
    )
    violations = report.verify()
    assert violations == [], violations
    return report


# ----------------------------------------------------------------------
# pytest-benchmark entry point
# ----------------------------------------------------------------------
def bench_chaos_crash_restart_run(benchmark):
    report = benchmark(
        lambda: _run_chaos(rate=0.06, requests=8, crash=True)
    )
    assert report.crashes == 1
    assert report.total_ops > 0


# ----------------------------------------------------------------------
# Script mode: write BENCH_chaos.json
# ----------------------------------------------------------------------
def _measure(rate: float, requests: int, crash: bool) -> dict:
    report = _run_chaos(rate, requests, crash)
    digest = report.canonical_digest()
    latencies = sorted(
        record.latency_ms
        for tenant_report in report.per_tenant.values()
        for record in tenant_report.requests
    )

    def percentile(q: float) -> float:
        if not latencies:
            return 0.0
        rank = max(0, min(len(latencies) - 1, round(q * (len(latencies) - 1))))
        return latencies[rank]

    return {
        "fault_rate": rate,
        "crash_restart": crash,
        "ops": report.total_ops,
        "availability": round(report.availability, 6),
        "faults_injected": report.faults_injected,
        "retries": report.total_retries,
        "reconnects": report.total_reconnects,
        "dedup_reacks": report.total_deduped,
        "recovered_writes": sum(
            (info or {}).get("entries", 0)
            for info in report.recovered.values()
        ),
        "p50_ms": round(percentile(0.50), 4),
        "p99_ms": round(percentile(0.99), 4),
        "wall_s": round(report.wall_s, 4),
        "violations": 0,  # asserted empty in _run_chaos
        "canonical_digest": digest,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="fewer fault rates and requests for CI; same code paths",
    )
    parser.add_argument("--out", default="BENCH_chaos.json")
    parser.add_argument(
        "--requests", type=int, default=None,
        help="ops per connection (default 16; smoke 8)",
    )
    args = parser.parse_args(argv)

    rates = SMOKE_RATES if args.smoke else FULL_RATES
    requests = args.requests or (8 if args.smoke else 16)
    sweep = [_measure(rate, requests, crash=True) for rate in rates]
    # Reproducibility spot-check: the faultiest run twice -> same digest.
    repeat = _measure(rates[-1], requests, crash=True)
    assert repeat["canonical_digest"] == sweep[-1]["canonical_digest"], (
        "chaos run is not deterministic per seed"
    )
    result = {
        "mode": "smoke" if args.smoke else "full",
        "tenants": list(TENANTS),
        "fields": list(FIELDS),
        "devices": DEVICES,
        "seed": SEED,
        "retry_max_attempts": RETRY.max_attempts,
        "deterministic_repeat": True,
        "sweep": sweep,
    }
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    for row in result["sweep"]:
        print(
            f"fault rate {row['fault_rate']:>5.2f}: "
            f"availability {row['availability']:.3f}, "
            f"{row['faults_injected']:>3} faults, "
            f"{row['retries']:>3} retries, "
            f"{row['dedup_reacks']} dedup re-acks, "
            f"p50 {row['p50_ms']:.3f} ms, p99 {row['p99_ms']:.3f} ms, "
            f"0 violations"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
