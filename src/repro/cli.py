"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``report``   regenerate EXPERIMENTS.md (all tables and figures),
``table``    print one of Tables 7-9,
``figure``   print one of Figures 1-4 (optionally as an ASCII chart),
``census``   strict-optimality census of a method on a file system,
``skew``     skew profile of the standard methods on a file system,
``search``   transform-assignment search (paper families or GF(2) linear),
``design``   optimal directory bit allocation from query statistics,
``simulate`` concurrent-workload latency comparison of the methods,
``verify``   cross-check the exact engines on a configuration,
``recommend`` rank methods for a file system and workload,
``faults``   fault-tolerant runtime: stream simulation under a fault plan
             (``run``) or availability curves plus runtime counters
             (``report``),
``obs``      telemetry: replay a workload and render the metrics/latency
             report (``report``), export the structured run as JSONL
             (``export``), print the last spans (``tail``), verify
             strict optimality from telemetry alone (``check``), or serve
             a loopback load and report per-tenant SLOs (``slo``),
``recover``  durability: scrub-and-repair a corrupted replicated file
             (``scrub``), crash/recovery byte-identity at WAL record
             boundaries (``replay``), rebuild a lost device from replicas
             and re-verify optimality (``rebuild``), or run all three as
             one health report (``report``),
``serve``    concurrent serving tier: drive a deterministic closed-loop
             multi-client load through the admission-controlled,
             coalescing, result-cached front end; report throughput,
             latency percentiles and the ``service.*`` counters, and
             (``--verify``) prove zero stale reads by serial replay,
``gateway``  the same over TCP for several tenants,
``chaos``    wire faults plus a crash-restart against the gateway, with
             the resilience invariants checked,
``adapt``    workload-adaptive declustering: score the deployed transform
             assignment against an observed query mix (``score``), search
             for a better one and report the gap to the lower bound
             (``plan``), or hot-swap a durable file onto it through the
             WAL-audited migration path and re-verify optimality from
             telemetry (``apply``).

File systems are given as ``--fields 8,8,16 --devices 32``.  Each command,
and each action of ``faults``, ``obs``, ``recover`` and ``adapt``, accepts
only the options its handler reads (``python -m repro obs tail --help``);
an option several of them share is declared once, in :func:`_add_options`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from collections.abc import Sequence

from repro.analysis.ascii_chart import render_series
from repro.api import make_method
from repro.core.fx import FXDistribution
from repro.core.linear import random_matrix_search
from repro.core.optimality import optimality_report
from repro.distribution.base import available_methods
from repro.distribution.search import (
    exhaustive_assignment_search,
    hill_climb_assignment_search,
)
from repro.errors import ConfigurationError, ReproError
from repro.hashing.fields import FileSystem
from repro.util.tables import format_table

__all__ = ["main", "build_parser"]


def _parse_numbers(text: str | None, kind: type, what: str) -> list:
    """A comma-separated list of *kind* numbers; a malformed entry is a
    :class:`ConfigurationError` (exit 2), not a traceback."""
    try:
        return [kind(part) for part in (text or "").split(",") if part]
    except ValueError:
        raise ConfigurationError(
            f"bad {what} {text!r}; expected comma-separated "
            f"{kind.__name__} values"
        ) from None


def _parse_names(text: str) -> list[str]:
    return [name.strip() for name in text.split(",") if name.strip()]


def _parse_filesystem(args: argparse.Namespace) -> FileSystem:
    sizes = _parse_numbers(args.fields, int, "--fields")
    return FileSystem.of(*sizes, m=args.devices)


def _method(fs: FileSystem, name: str, **opts):
    """:func:`repro.api.make_method` on a parsed file system."""
    return make_method(name, fields=fs.field_sizes, devices=fs.m, **opts)


def _workload(fs: FileSystem, args: argparse.Namespace):
    """The seeded random query stream (``--p``, ``--seed``)."""
    from repro.query.workload import QueryWorkload, WorkloadSpec

    return QueryWorkload(
        fs,
        WorkloadSpec(spec_probability=args.p, exclude_trivial=True,
                     seed=args.seed),
    )


def _seeded_records(fs: FileSystem, count: int, seed: int) -> list[tuple]:
    """The deterministic record stream loaded before a run."""
    import random as _random

    rng = _random.Random(seed)
    return [
        tuple(rng.randrange(1024) for __ in range(fs.n_fields))
        for __ in range(count)
    ]


def _fresh_telemetry(
    deterministic_clock: bool, retain_all: bool = False
) -> None:
    """Reset telemetry.  A manual clock makes the whole run — span
    timestamps *and* the perf-counter seconds — reproducible, so
    ``obs export`` output is byte-identical across runs.

    A one-shot run that exports or audits everything it records
    (*retain_all*) lifts the event log's byte budget: its export renders
    every record anyway, so the budget would bound nothing and only cut
    the export short.  Every other run gets the default budget back.
    """
    from repro import obs

    if deterministic_clock:
        obs.configure(clock=obs.ManualClock(step=0.001), reset=True)
    else:
        obs.reset_telemetry()
    obs.telemetry().events.budget_bytes = (
        math.inf if retain_all else obs.DEFAULT_BUDGET_BYTES
    )


def _fail(code: str, **detail: object) -> None:
    """Machine-readable failure on stderr, so scripted callers (CI, make
    targets) can tell a failed run apart from a crash."""
    print(json.dumps({"v": 1, "error": {"code": code, **detail}}),
          file=sys.stderr)


def _serving_options(args: argparse.Namespace) -> dict:
    """The :func:`repro.api.make_service` keywords of ``serve``/``gateway``."""
    return {
        "max_concurrent": args.max_concurrent,
        "queue_limit": args.queue_limit,
        "deadline_ms": args.deadline,
        "cache_capacity": args.cache_capacity,
    }


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.runner import main as runner_main

    forwarded = ["--output", str(args.output)]
    if args.no_exact_figures:
        forwarded.append("--no-exact-figures")
    if args.stdout:
        forwarded.append("--stdout")
    return runner_main(forwarded)


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.experiments.response_tables import reproduce_table

    print(reproduce_table(args.which).render())
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments.figures import reproduce_figure

    series = reproduce_figure(args.which, p=args.p)
    print(series.render())
    if args.chart:
        print()
        print(render_series(series))
    return 0


def _reject_unread(args: argparse.Namespace, **readers: str) -> None:
    """Reject a given flag that the chosen ``--method`` does not read.

    *readers* maps each flag's dest to the one method that reads it.
    """
    for dest, reader in readers.items():
        if getattr(args, dest) is not None and args.method != reader:
            raise ConfigurationError(
                f"--{dest} is for --method {reader} only, "
                f"not --method {args.method}"
            )


def _cmd_census(args: argparse.Namespace) -> int:
    fs = _parse_filesystem(args)
    _reject_unread(args, multipliers="gdm", transforms="fx")
    options: dict[str, object] = {}
    if multipliers := _parse_numbers(args.multipliers, int, "--multipliers"):
        options["multipliers"] = tuple(multipliers)
    if args.transforms:
        options["transforms"] = args.transforms
    report = optimality_report(_method(fs, args.method, **options))
    print(report.summary())
    if report.failures and args.failures:
        rows = [
            [sorted(pattern), worst, bound]
            for pattern, worst, bound in report.failures[: args.failures]
        ]
        print()
        print(
            format_table(
                ["unspecified fields", "worst load", "allowed"],
                rows,
                title="worst failures",
            )
        )
    return 0 if report.optimal_fraction == 1.0 else 1


def _cmd_skew(args: argparse.Namespace) -> int:
    from repro.analysis.skew import skew_summary

    fs = _parse_filesystem(args)
    methods = [
        _method(fs, "fx", policy="theorem9"),
        _method(fs, "fx", policy="paper"),
        _method(fs, "modulo"),
        _method(fs, "gdm"),
    ]
    rows = [skew_summary(method, p=args.p).row() for method in methods]
    rows[0][0] = "fx (theorem9)"
    rows[1][0] = "fx (paper)"
    print(
        format_table(
            ["method", "E[max load]", "E[load factor]", "worst factor",
             "optimal queries"],
            rows,
            title=f"Skew profile on {fs.describe()} (p = {args.p})",
        )
    )
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    fs = _parse_filesystem(args)
    if args.space == "families":
        if len(fs.small_fields()) <= 6:
            result = exhaustive_assignment_search(fs, p=args.p)
            how = f"exhaustive, {result.evaluations} assignments"
        else:
            result = hill_climb_assignment_search(
                fs, p=args.p, seed=args.seed
            )
            how = f"hill climb, {result.evaluations} evaluations"
        print(f"best assignment ({how}): {result.methods}")
        print(f"exact optimal fraction: {100 * result.score:.2f}%")
    else:
        result = random_matrix_search(
            fs, iterations=args.iterations, p=args.p, seed=args.seed
        )
        print(
            f"best linear transforms after {result.evaluations} draws: "
            f"{100 * result.score:.2f}% of queries strict optimal"
        )
        for i, transform in enumerate(result.transforms):
            if transform.method == "LIN":
                print(f"field {i} matrix:")
                print(transform.matrix)
    return 0


def _cmd_design(args: argparse.Namespace) -> int:
    from repro.hashing.design import design_directory

    probabilities = _parse_numbers(
        args.probabilities, float, "--probabilities"
    )
    design = design_directory(
        probabilities,
        total_bits=args.bits,
        max_bits_per_field=args.max_bits,
    )
    rows = [
        [i, p, b, 1 << b]
        for i, (p, b) in enumerate(zip(probabilities, design.bits))
    ]
    print(
        format_table(
            ["field", "P(specified)", "bits", "directory size"],
            rows,
            title=f"Optimal directory for {args.bits} total bits",
            float_digits=2,
        )
    )
    print(f"expected qualified buckets: {design.expected_qualified():.2f}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.storage.costs import DiskCostModel
    from repro.storage.simulator import ParallelQuerySimulator, poisson_arrivals

    fs = _parse_filesystem(args)
    arrivals = poisson_arrivals(
        _workload(fs, args), args.queries, rate_qps=args.rate, seed=args.seed
    )
    methods = {
        "FX": _method(fs, "fx", policy="paper"),
        "Modulo": _method(fs, "modulo"),
        "GDM": _method(fs, "gdm"),
    }
    reports = {
        name: ParallelQuerySimulator(
            method, cost_model=DiskCostModel()
        ).run(arrivals).to_dict()
        for name, method in methods.items()
    }
    if args.json:
        print(json.dumps(reports, indent=2))
        return 0
    rows = [
        [
            name,
            round(data["mean_latency_ms"], 1),
            round(data["max_latency_ms"], 1),
            round(data["mean_queueing_ms"], 1),
            round(data["throughput_qps"], 2),
        ]
        for name, data in reports.items()
    ]
    print(
        format_table(
            ["method", "mean latency", "max latency", "mean queueing",
             "throughput q/s"],
            rows,
            title=(
                f"{args.queries} queries at {args.rate} q/s on "
                f"{fs.describe()}"
            ),
        )
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.experiments.verification import verify_method

    fs = _parse_filesystem(args)
    _reject_unread(args, policy="fx")
    options = {"policy": args.policy} if args.policy else {}
    report = verify_method(_method(fs, args.method, **options))
    print(report.summary())
    for pattern, engines in report.disagreements[:10]:
        print(f"  pattern {sorted(pattern)}: {engines}")
    return 0 if report.consistent else 1


def _cmd_recommend(args: argparse.Namespace) -> int:
    from repro.distribution.advisor import recommend_method

    fs = _parse_filesystem(args)
    recommendation = recommend_method(fs, p=args.p)
    print(recommendation.render())
    best = recommendation.best
    print(
        f"\nrecommended: {best.name} "
        f"(E[largest response] = {best.expected_largest:.3f}, "
        f"{100 * best.optimal_fraction:.1f}% of queries strict optimal)"
    )
    return 0


def _parse_slow_map(text: str | None) -> dict[int, float]:
    factors: dict[int, float] = {}
    for part in (text or "").split(","):
        if not part:
            continue
        device, sep, factor = part.partition(":")
        try:
            if not sep:
                raise ValueError
            factors[int(device)] = float(factor)
        except ValueError:
            raise ConfigurationError(
                f"bad --slow entry {part!r}; expected device:factor"
            ) from None
    return factors


def _fault_plan(args: argparse.Namespace):
    """The fault plan and retry policy of a ``faults`` action."""
    from repro.runtime import FaultPlan, RetryPolicy

    plan = FaultPlan(
        seed=args.seed,
        failed_devices=frozenset(
            _parse_numbers(args.fail, int, "device list")
        ),
        transient_error_rate=args.error_rate,
        slow_factors=_parse_slow_map(args.slow),
    )
    retry = RetryPolicy(max_attempts=args.retries, timeout_ms=args.timeout)
    return plan, retry


def _cmd_faults_run(args: argparse.Namespace) -> int:
    """Stream a seeded workload through the fault-aware simulator."""
    from repro.distribution.replicated import ChainedReplicaScheme
    from repro.runtime import FaultAwareQuerySimulator
    from repro.storage.costs import DiskCostModel
    from repro.storage.simulator import poisson_arrivals

    fs = _parse_filesystem(args)
    method = _method(fs, args.method)
    scheme = (
        ChainedReplicaScheme(method, offset=args.offset)
        if args.replicate
        else None
    )
    plan, retry = _fault_plan(args)
    arrivals = poisson_arrivals(
        _workload(fs, args), args.queries, rate_qps=args.rate, seed=args.seed
    )
    report = FaultAwareQuerySimulator(
        method, plan=plan, retry=retry, scheme=scheme,
        cost_model=DiskCostModel(),
    ).run(arrivals)
    data = report.to_dict()
    if args.json:
        print(json.dumps(data, indent=2))
        return 0
    print(f"{args.method} under {plan.describe()}"
          + (" with chained replicas" if scheme else ""))
    rows = [
        ["queries", data["queries"]],
        ["mean latency (ms)", round(data["mean_latency_ms"], 2)],
        ["p95 latency (ms)", round(data["p95_latency_ms"], 2)],
        ["max latency (ms)", round(data["max_latency_ms"], 2)],
        ["throughput (q/s)", round(data["throughput_qps"], 2)],
        ["mean completeness", round(data["mean_completeness"], 4)],
        ["retries", data["retries"]],
        ["timeouts", data["timeouts"]],
        ["failovers", data["failovers"]],
        ["lost buckets", data["lost_buckets"]],
    ]
    print(format_table(["metric", "value"], rows, float_digits=4))
    return 0


def _cmd_faults_report(args: argparse.Namespace) -> int:
    """Availability curves plus a live failover demo and runtime counters."""
    from repro.analysis.availability import degraded_response_curve
    from repro.distribution.replicated import ChainedReplicaScheme
    from repro.obs.metrics import default_registry
    from repro.runtime import DegradedExecutor
    from repro.storage.costs import DiskCostModel
    from repro.storage.parallel_file import PartitionedFile
    from repro.storage.replicated_file import ReplicatedFile

    fs = _parse_filesystem(args)
    default_registry().reset_perf()
    plan, retry = _fault_plan(args)
    queries = _workload(fs, args).take(min(args.queries, 25))

    fx = _method(fs, "fx")
    modulo = _method(fs, "modulo")
    replicated_fx = _method(fs, "replicated", base="fx", offset=args.offset)
    k_values = range(min(args.max_failures, fs.m) + 1)
    curves = {
        "FX": degraded_response_curve(
            fx, queries, k_values, cost_model=DiskCostModel(), seed=args.seed
        ),
        "Modulo": degraded_response_curve(
            modulo, queries, k_values, cost_model=DiskCostModel(),
            seed=args.seed,
        ),
        "FX + replicas": degraded_response_curve(
            replicated_fx.base, queries, k_values, scheme=replicated_fx,
            cost_model=DiskCostModel(), seed=args.seed,
        ),
    }
    if args.json:
        payload = {
            name: [
                {
                    "k": point.k,
                    "survival": point.survival,
                    "mean_response_ms": point.mean_response_ms,
                    "mean_completeness": point.mean_completeness,
                }
                for point in points
            ]
            for name, points in curves.items()
        }
        print(json.dumps(payload, indent=2))
        return 0
    for name, points in curves.items():
        print(
            format_table(
                ["failed devices k", "P(no data loss)",
                 "mean response (ms)", "mean completeness"],
                [point.row() for point in points],
                title=f"{name} on {fs.describe()}",
                float_digits=4,
            )
        )
        print()

    # Live failover demo: the same records and plan against a replicated
    # and an unreplicated file, driving the runtime counters shown below.
    records = _seeded_records(fs, 64, args.seed)
    replicated = ReplicatedFile(
        ChainedReplicaScheme(_method(fs, "fx"), offset=args.offset)
    )
    replicated.insert_all(records)
    plain = PartitionedFile(_method(fs, "fx"))
    plain.insert_all(records)
    masked = DegradedExecutor(replicated, plan=plan, retry=retry)
    exposed = DegradedExecutor(plain, plan=plan, retry=retry)
    rows = []
    for record in records[:8]:
        specified = {0: record[0]}
        covered = masked.search(specified)
        partial = exposed.search(specified)
        rows.append(
            [
                str(specified),
                len(covered.records),
                covered.failovers,
                round(covered.completeness, 4),
                round(partial.completeness, 4),
            ]
        )
    print(
        format_table(
            ["query", "records", "failovers", "completeness (replicated)",
             "completeness (plain)"],
            rows,
            title=f"Degraded execution under {plan.describe()}",
            float_digits=4,
        )
    )
    print()
    print(
        _perf_table(default_registry().snapshot(), title="Runtime counters")
    )
    return 0


def _obs_queries(args: argparse.Namespace):
    """The replay workload: a trace file or a seeded random stream."""
    from repro.query.trace import load_trace

    fs = _parse_filesystem(args)
    method = _method(fs, args.method)
    if args.trace:
        return method, load_trace(fs, args.trace)
    return method, _workload(fs, args).take(args.queries)


def _obs_replay(args: argparse.Namespace):
    """Reset telemetry, then replay the workload end to end."""
    from repro.engine.plan import ArrayBatchPlanner
    from repro.storage.executor import QueryExecutor
    from repro.storage.parallel_file import PartitionedFile

    _fresh_telemetry(args.deterministic_clock, retain_all=True)
    method, queries = _obs_queries(args)
    pf = PartitionedFile(method)
    pf.insert_all(_seeded_records(method.filesystem, args.records, args.seed))
    executor = QueryExecutor(pf)
    for query in queries:
        executor.execute(query)
    if len(queries) > 1:
        ArrayBatchPlanner(method).plan(queries)
    return method, queries


def _span_keep(args: argparse.Namespace):
    """Span predicate for the ``--tenant`` / ``--trace-id`` filters.

    Returns None when no filter is active (keep everything, including
    non-span records).  Tenant membership is resolved by walking parent
    links to the owning ``gateway.request`` span, the same attribution
    the query-mix profiler uses.
    """
    tenant, trace_id = args.filter_tenant, args.trace_id
    if tenant is None and trace_id is None:
        return None
    from repro.obs import telemetry
    from repro.obs.profile import resolve_tenant, span_index

    index = span_index(telemetry().export_records())

    def keep(record: dict) -> bool:
        if record.get("type") != "span":
            return False
        if trace_id is not None and record.get("trace") != trace_id:
            return False
        if tenant is not None and resolve_tenant(record, index) != tenant:
            return False
        return True

    return keep


def _format_ms(value: float | None) -> str:
    return "-" if value is None else f"{value:,.3f}"


def _perf_table(snap, title: str = "Engine perf counters") -> str:
    """The perf counters of a registry snapshot as a table.

    A dash marks a rate with nothing measured behind it (no lookups, or
    no timed seconds); an empty snapshot renders one placeholder row.
    """
    rows = []
    for name, c in sorted(snap.perf.items()):
        hit_rate, rate = c.hit_rate_or_none, c.rate_or_none
        rows.append(
            [
                name,
                c.hits,
                c.misses,
                "-" if hit_rate is None else f"{100 * hit_rate:.1f}%",
                c.events,
                "-" if rate is None else f"{rate:,.0f}/s",
            ]
        )
    if not rows:
        rows.append(["(no activity recorded)", 0, 0, "-", 0, "-"])
    return format_table(
        ["counter", "hits", "misses", "hit rate", "events", "throughput"],
        rows,
        title=title,
    )


def _cmd_obs_report(args: argparse.Namespace) -> int:
    """Replay, then render one unified view of the whole metrics registry."""
    from repro.obs import telemetry

    method, queries = _obs_replay(args)
    snap = telemetry().metrics.snapshot()

    histogram_rows = [
        [
            name,
            h.count,
            _format_ms(h.quantile(0.50)),
            _format_ms(h.quantile(0.95)),
            _format_ms(h.quantile(0.99)),
            _format_ms(h.max),
        ]
        for name, h in sorted(snap.histograms.items())
    ]
    if histogram_rows:
        print(
            format_table(
                ["histogram", "count", "p50", "p95", "p99", "max"],
                histogram_rows,
                title=f"Latency histograms — {method.describe()}, "
                f"{len(queries)} queries",
            )
        )
        print()
    counter_rows = [
        [name, value] for name, value in sorted(snap.counters.items())
    ]
    counter_rows.extend(
        [name, "-" if value is None else value]
        for name, value in sorted(snap.gauges.items())
    )
    if counter_rows:
        print(format_table(["metric", "value"], counter_rows,
                           title="Counters and gauges"))
        print()
    print(_perf_table(snap))
    events = telemetry().events
    print()
    print(f"{len(events)} telemetry events retained "
          f"({events.appended} recorded, {events.evicted} evicted)")
    return 0


def _cmd_obs_export(args: argparse.Namespace) -> int:
    """Replay, then write the structured run as canonical JSONL."""
    from repro.obs import telemetry, validate_jsonl
    from repro.obs.events import jsonl_line

    _obs_replay(args)
    keep = _span_keep(args)
    if keep is None:
        text = telemetry().export_jsonl()
    else:
        text = "".join(
            jsonl_line(record)
            for record in telemetry().export_records()
            if keep(record)
        )
    if args.validate:
        validate_jsonl(text)
    if args.jsonl == "-":
        sys.stdout.write(text)
    else:
        from pathlib import Path

        Path(args.jsonl).write_text(text, encoding="utf-8")
        print(
            f"wrote {text.count(chr(10))} records to {args.jsonl}"
            + (" (validated)" if args.validate else "")
        )
    return 0


def _cmd_obs_tail(args: argparse.Namespace) -> int:
    """Replay, then print the most recent spans human-readably."""
    from repro.obs import telemetry

    _obs_replay(args)
    keep = _span_keep(args)
    for record in telemetry().events.tail(args.lines):
        if record.get("type") != "span":
            continue
        if keep is not None and not keep(record):
            continue
        attrs = " ".join(
            f"{key}={value}" for key, value in sorted(record["attrs"].items())
        )
        line = (
            f"[{record['start_ms']:>12.3f}ms] #{record['id']} "
            f"{record['name']} ({record['duration_ms']:.3f}ms)"
        )
        if record["parent"] is not None:
            line += f" parent=#{record['parent']}"
        if record.get("trace"):
            line += f" trace={record['trace']:#x}"
        if attrs:
            line += f" {attrs}"
        if record["events"]:
            line += f" events={len(record['events'])}"
        print(line)
    return 0


def _cmd_obs_check(args: argparse.Namespace) -> int:
    """Verify the strict-optimality bound from telemetry alone."""
    from repro.obs import ObservedOptimalityChecker

    # A serial replay reads each span as it closes; a batched one reads
    # the one query.batch span covering the whole trace.
    _fresh_telemetry(args.deterministic_clock, retain_all=args.batched)
    method, queries = _obs_queries(args)
    report = ObservedOptimalityChecker(method).replay(
        queries, batched=args.batched
    )
    print(report.summary())
    for observation in report.violations[:10]:
        print(
            f"  {observation.query}: observed max "
            f"{observation.observed_max} > bound {observation.bound}"
        )
    for observation in report.disagreements[:10]:
        print(
            f"  DISAGREEMENT {observation.query}: telemetry "
            f"{sorted(observation.observed_per_device)} vs closed form "
            f"{sorted(observation.closed_form_per_device)}"
        )
    return 0 if report.consistent else 1


def _loopback_run(args: argparse.Namespace, gateway,
                  fetch_obs: bool = False, **load: object):
    """Start *gateway*, drive the seeded loopback load over the wire and
    drain it; *load* adds :class:`~repro.service.LoadSpec` fields.

    Returns the load report, the ``{"op": "obs"}`` snapshot fetched over
    the wire after the load (with *fetch_obs*, else None) and whether the
    drain was clean.
    """
    from repro.gateway import run_loopback_load
    from repro.gateway.client import GatewayClient
    from repro.service import LoadSpec

    host, port = gateway.start()
    snapshot = None
    try:
        report = run_loopback_load(
            (host, port),
            list(gateway.tenants.values()),
            LoadSpec(
                clients=args.connections,
                requests_per_client=args.requests,
                seed=args.seed,
                spec_probability=args.p,
                **load,
            ),
        )
        if fetch_obs:
            with GatewayClient(host, port) as client:
                snapshot = client.obs()
    finally:
        clean = gateway.drain()
    return report, snapshot, clean


def _cmd_obs_slo(args: argparse.Namespace) -> int:
    """Serve a loopback multi-tenant load, then report SLO budgets.

    The snapshot is fetched through the ``{"op": "obs"}`` wire operation
    (not read from process-local state), so the command exercises the
    same path an external monitor would: framed request in, labeled
    metrics + per-tenant SLO budgets out.
    """
    from repro.api import make_gateway
    from repro.obs.slo import SloReport

    _fresh_telemetry(args.deterministic_clock)
    fs = _parse_filesystem(args)
    gateway = make_gateway(
        {
            name: {"request_quota": args.quota}
            for name in _parse_names(args.tenants)
        },
        fields=fs.field_sizes,
        devices=fs.m,
        method=args.method,
    )
    load, snapshot, clean = _loopback_run(
        args, gateway, fetch_obs=True, preload=min(args.records, 32)
    )
    report = SloReport.from_dict(snapshot["slo"])
    if args.json:
        print(json.dumps(snapshot["slo"], indent=2, sort_keys=True))
    else:
        print(report.render())
        print()
        print(
            f"{load.completed} requests served over the wire, "
            f"clean drain: {clean}"
        )
    ok = clean and not load.errors and report.healthy
    return 0 if ok else 1


def _recover_scrub_data(args: argparse.Namespace) -> dict:
    """Corrupt a seeded replicated file per the fault plan, scrub twice."""
    from repro.api import make_durable_file
    from repro.durability import Scrubber
    from repro.runtime import FaultInjector, FaultPlan

    fs = _parse_filesystem(args)
    durable = make_durable_file(
        args.method, fields=fs.field_sizes, devices=fs.m, offset=args.offset
    )
    durable.insert_all(_seeded_records(fs, args.records, args.seed))
    plan = FaultPlan(seed=args.seed, corruption_rate=args.corruption_rate)
    scrubber = Scrubber(durable.file)
    damaged = scrubber.inject(FaultInjector(plan, fs.m))
    sweep = scrubber.sweep()
    verify = scrubber.sweep()
    return {
        "plan": plan.describe(),
        "pages_damaged": len(damaged),
        "sweep": sweep.to_dict(),
        "verify_clean": verify.clean,
        "ok": sweep.healed
        and verify.clean
        and sweep.bad_pages == len(damaged),
    }


def _cmd_recover_scrub(args: argparse.Namespace) -> int:
    _fresh_telemetry(args.deterministic_clock)
    data = _recover_scrub_data(args)
    if args.json:
        print(json.dumps(data, indent=2))
        return 0 if data["ok"] else 1
    sweep = data["sweep"]
    print(f"scrub under {data['plan']}")
    rows = [
        ["pages damaged (injected)", data["pages_damaged"]],
        ["pages checked", sweep["pages_checked"]],
        ["corrupt pages detected", sweep["corrupt_pages"]],
        ["missing pages detected", sweep["missing_pages"]],
        ["pages repaired", sweep["repaired_pages"]],
        ["unrepairable", len(sweep["unrepairable"])],
        ["second sweep clean", data["verify_clean"]],
    ]
    print(format_table(["metric", "value"], rows))
    return 0 if data["ok"] else 1


def _recover_replay_data(args: argparse.Namespace) -> dict:
    """Crash at WAL boundaries, recover, compare digests to fault-free."""
    from repro.api import make_durable_file
    from repro.durability import recover
    from repro.errors import SimulatedCrashError

    fs = _parse_filesystem(args)
    records = _seeded_records(fs, args.records, args.seed)
    build = lambda **kw: make_durable_file(  # noqa: E731
        args.method, fields=fs.field_sizes, devices=fs.m,
        offset=args.offset, **kw,
    )
    # Fault-free digests after each prefix of k mutations.
    baseline = build()
    digests = [baseline.state_digest()]
    for record in records:
        baseline.insert(record)
        digests.append(baseline.state_digest())

    if args.all_offsets:
        boundaries = list(range(len(records) + 1))
    else:
        crash_after = (
            args.crash_after
            if args.crash_after is not None
            else len(records) // 2
        )
        boundaries = [min(crash_after, len(records))]
    mismatches = []
    torn_tails = 0
    for k in boundaries:
        crashed = build(crash_after=k, torn_tail=args.torn_tail)
        try:
            crashed.insert_all(records)
        except SimulatedCrashError:
            pass
        fresh = build()
        report = recover(crashed.wal, fresh.file)
        torn_tails += report.had_torn_tail
        if fresh.state_digest() != digests[k] or report.entries_replayed != k:
            mismatches.append(k)
    return {
        "records": len(records),
        "boundaries_tested": len(boundaries),
        "torn_tail": args.torn_tail,
        "torn_tails_discarded": torn_tails,
        "mismatched_boundaries": mismatches,
        "byte_identical": not mismatches,
        "ok": not mismatches,
    }


def _cmd_recover_replay(args: argparse.Namespace) -> int:
    _fresh_telemetry(args.deterministic_clock)
    data = _recover_replay_data(args)
    if args.json:
        print(json.dumps(data, indent=2))
        return 0 if data["ok"] else 1
    rows = [
        ["records in workload", data["records"]],
        ["crash boundaries tested", data["boundaries_tested"]],
        ["torn tail injected", data["torn_tail"]],
        ["torn tails discarded", data["torn_tails_discarded"]],
        ["byte-identical recoveries", data["byte_identical"]],
    ]
    print(format_table(["metric", "value"], rows,
                       title="WAL crash/recovery byte-identity"))
    if data["mismatched_boundaries"]:
        print(f"MISMATCH at boundaries {data['mismatched_boundaries']}")
    return 0 if data["ok"] else 1


def _recover_rebuild_data(args: argparse.Namespace) -> dict:
    """Lose a device, rebuild from replicas, verify digest and the bound."""
    from repro.api import make_durable_file
    from repro.durability import DeviceRebuilder

    fs = _parse_filesystem(args)
    durable = make_durable_file(
        args.method, fields=fs.field_sizes, devices=fs.m, offset=args.offset
    )
    durable.insert_all(_seeded_records(fs, args.records, args.seed))
    before = durable.state_digest()
    durable.file.lose_device(args.lose)
    queries = _workload(fs, args).take(args.queries) if args.queries else None
    report = DeviceRebuilder(durable.file).rebuild(
        args.lose, queries=queries
    )
    identical = durable.state_digest() == before
    data = report.to_dict()
    data["digest_identical"] = identical
    data["ok"] = identical and report.optimality_verified is not False
    return data


def _cmd_recover_rebuild(args: argparse.Namespace) -> int:
    _fresh_telemetry(args.deterministic_clock)
    data = _recover_rebuild_data(args)
    if args.json:
        print(json.dumps(data, indent=2))
        return 0 if data["ok"] else 1
    rows = [
        ["device lost", data["device"]],
        ["buckets restored", data["buckets_restored"]],
        ["records restored", data["records_restored"]],
        ["source devices", data["source_devices"]],
        ["state byte-identical", data["digest_identical"]],
        ["optimality bound verified",
         "-" if data["optimality_verified"] is None
         else data["optimality_verified"]],
        ["queries checked", data["optimality_queries"]],
    ]
    print(format_table(["metric", "value"], rows,
                       title="Device rebuild from chained replicas"))
    return 0 if data["ok"] else 1


def _cmd_recover_report(args: argparse.Namespace) -> int:
    """All three durability drills plus the durability counters."""
    from repro.obs import telemetry

    _fresh_telemetry(args.deterministic_clock)
    combined = {
        "scrub": _recover_scrub_data(args),
        "replay": _recover_replay_data(args),
        "rebuild": _recover_rebuild_data(args),
    }
    snap = telemetry().metrics.snapshot()
    combined["counters"] = {
        name: value
        for name, value in sorted(snap.counters.items())
        if name.startswith("durability.")
    }
    ok = all(section["ok"] for section in
             (combined["scrub"], combined["replay"], combined["rebuild"]))
    combined["ok"] = ok
    if args.json:
        print(json.dumps(combined, indent=2))
        return 0 if ok else 1
    rows = [
        ["scrub: repaired / damaged",
         f"{combined['scrub']['sweep']['repaired_pages']} / "
         f"{combined['scrub']['pages_damaged']}"],
        ["replay: byte-identical boundaries",
         f"{combined['replay']['boundaries_tested'] - len(combined['replay']['mismatched_boundaries'])} / "
         f"{combined['replay']['boundaries_tested']}"],
        ["rebuild: records restored",
         combined["rebuild"]["records_restored"]],
        ["rebuild: optimality verified",
         "-" if combined["rebuild"]["optimality_verified"] is None
         else combined["rebuild"]["optimality_verified"]],
        ["overall", "healthy" if ok else "DEGRADED"],
    ]
    print(format_table(["drill", "result"], rows,
                       title="Durability health report"))
    if combined["counters"]:
        print()
        print(format_table(
            ["counter", "value"],
            [[name, value] for name, value in combined["counters"].items()],
        ))
    return 0 if ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Drive the serving front end with a closed-loop load and report."""
    from repro import obs
    from repro.api import make_service
    from repro.service import LoadGenerator, LoadSpec

    obs.reset_telemetry()
    fs = _parse_filesystem(args)
    service = make_service(
        args.method,
        fields=fs.field_sizes,
        devices=fs.m,
        **_serving_options(args),
    )
    generator = LoadGenerator(
        service,
        LoadSpec(
            clients=args.clients,
            requests_per_client=args.requests,
            seed=args.seed,
            spec_probability=args.p,
            write_every=args.write_every,
            hot_fraction=args.hot_fraction,
            preload=args.records,
            deadline_ms=args.deadline,
        ),
    )
    report = generator.run()
    data = report.to_dict()
    mismatches: list[str] = []
    if args.verify:
        mismatches = report.verify(service.file.multikey_hash)
        data["replay_mismatches"] = len(mismatches)
    snap = obs.telemetry().metrics.snapshot()
    counters = {
        name: value
        for name, value in sorted(snap.counters.items())
        if name.startswith("service.")
    }
    shed = int(data.get("shed", 0))
    timed_out = int(data.get("timeout", 0))
    degraded = (shed or timed_out) and not args.allow_degraded
    ok = not report.errors and not mismatches and not degraded
    if degraded:
        _fail(
            "degraded_load",
            message="load run ended with shed or timed-out requests "
            "(pass --allow-degraded to tolerate)",
            shed=shed,
            timeout=timed_out,
        )
    if args.json:
        data["counters"] = counters
        print(json.dumps(data, indent=2))
        return 0 if ok else 1
    rows = [
        ["clients (closed loop)", args.clients],
        ["queries served", data["ok"]],
        ["writes applied", data["writes"]],
        ["shed / timeout", f"{data['shed']} / {data['timeout']}"],
        ["coalesced", data["coalesced"]],
        ["throughput (req/s)", data["throughput_qps"]],
        ["latency p50 (ms)", round(data["p50_ms"], 3)],
        ["latency p95 (ms)", round(data["p95_ms"], 3)],
        ["latency p99 (ms)", round(data["p99_ms"], 3)],
        ["client errors", len(report.errors)],
    ]
    if args.verify:
        rows.append(["serial-replay mismatches", len(mismatches)])
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=(
                f"Serving {args.method} on {fs.describe()}: "
                f"{args.clients} x {args.requests} requests"
            ),
        )
    )
    if counters:
        print()
        print(
            format_table(
                ["service counter", "value"],
                [[name, value] for name, value in counters.items()],
            )
        )
    for message in mismatches[:10]:
        print(f"MISMATCH {message}")
    return 0 if ok else 1


def _cmd_gateway(args: argparse.Namespace) -> int:
    """Run the multi-tenant network gateway over a loopback load.

    The tenant gate's ``shed`` and ``rate_limited`` replies are the
    quota and rate limits at work; any other coded reply fails the run.
    """
    from repro import obs
    from repro.api import make_gateway
    from repro.gateway.tenant import RATE_LIMITED, SHED

    _fresh_telemetry(
        False, retain_all=bool(args.export_jsonl) and not args.listen
    )
    fs = _parse_filesystem(args)
    tenant_names = _parse_names(args.tenants)
    tenants = {
        name: {
            "request_quota": args.quota,
            "rate_per_s": args.rate,
            "burst": args.burst,
            "max_inflight": args.max_inflight,
        }
        for name in tenant_names
    }
    gateway = make_gateway(
        tenants,
        fields=fs.field_sizes,
        devices=fs.m,
        method=args.method,
        host=args.host,
        port=args.port,
        max_connections=args.max_connections,
        **_serving_options(args),
    )
    if args.listen:
        host, port = gateway.start()
        print(f"gateway listening on {host}:{port} "
              f"(tenants: {', '.join(tenant_names)}; Ctrl-C to drain)")
        try:
            while True:
                time.sleep(1.0)
        except KeyboardInterrupt:
            pass
        clean = gateway.drain()
        return 0 if clean else 1

    report, __, clean_drain = _loopback_run(
        args,
        gateway,
        write_every=args.write_every,
        batch_every=args.batch_every,
        preload=args.preload,
        deadline_ms=args.deadline,
    )
    if args.export_jsonl:
        from pathlib import Path

        text = obs.telemetry().export_jsonl()
        Path(args.export_jsonl).write_text(text, encoding="utf-8")
    mismatches: dict[str, list[str]] = {}
    if args.verify:
        mismatches = {
            name: bad for name, bad in report.verify().items() if bad
        }
    snap = obs.telemetry().metrics.snapshot()
    counters = {
        name: value
        for name, value in sorted(snap.counters.items())
        if name.startswith("gateway.") and "latency" not in name
    }
    failed_codes = sorted(
        {code for codes in report.rejections.values() for code in codes}
        - {SHED, RATE_LIMITED}
    )
    ok = (
        not report.errors and not mismatches and clean_drain
        and not failed_codes
    )
    if not ok:
        _fail(
            "gateway_load_failed",
            transport_errors=len(report.errors),
            stale_tenants=sorted(mismatches),
            clean_drain=clean_drain,
            rejection_codes=failed_codes,
        )
    if args.json:
        data = report.to_dict()
        data["counters"] = counters
        data["clean_drain"] = clean_drain
        if args.verify:
            data["replay_mismatches"] = {
                name: len(bad) for name, bad in mismatches.items()
            }
        print(json.dumps(data, indent=2))
        return 0 if ok else 1
    rejected: dict[str, int] = {}
    for codes in report.rejections.values():
        for code, count in codes.items():
            rejected[code] = rejected.get(code, 0) + count
    rows = [
        ["tenants", len(tenant_names)],
        ["connections per tenant", args.connections],
        ["requests completed", report.completed],
        [
            "rejected (quota / rate)",
            rejected.get(SHED, 0) + rejected.get(RATE_LIMITED, 0),
        ],
        *([f"rejected ({code})", rejected[code]] for code in failed_codes),
        ["throughput (req/s)", round(report.throughput_qps, 3)],
        ["transport errors", len(report.errors)],
        ["clean drain", clean_drain],
    ]
    if args.verify:
        rows.append(
            ["stale reads", sum(len(bad) for bad in mismatches.values())]
        )
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=(
                f"Gateway {args.method} on {fs.describe()}: "
                f"{len(tenant_names)} tenants x {args.connections} "
                f"connections x {args.requests} requests"
            ),
        )
    )
    if counters:
        print()
        print(
            format_table(
                ["gateway counter", "value"],
                [[name, value] for name, value in counters.items()],
            )
        )
    for name, bad in sorted(mismatches.items()):
        for message in bad[:5]:
            print(f"MISMATCH [{name}] {message}")
    return 0 if ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run the chaos harness and prove the resilience invariants."""
    from repro import obs
    from repro.chaos import ChaosSpec, NetFaultPlan, run_chaos_load
    from repro.gateway.tenant import TenantSpec
    from repro.runtime import RetryPolicy
    from repro.service import LoadSpec

    obs.reset_telemetry()
    fs = _parse_filesystem(args)
    tenant_names = _parse_names(args.tenants)
    tenants = [
        TenantSpec.of(name, fs.field_sizes, fs.m, method=args.method)
        for name in tenant_names
    ]
    rate = args.fault_rate
    plan = NetFaultPlan(
        seed=args.seed,
        refuse_rate=args.refuse_rate if args.refuse_rate is not None else rate,
        reset_request_rate=rate,
        reset_response_rate=rate,
        tear_rate=rate,
        duplicate_rate=rate,
        delay_rate=rate,
        delay_ms=args.delay_ms,
    )
    spec = ChaosSpec(
        load=LoadSpec(
            clients=args.connections,
            requests_per_client=args.requests,
            seed=args.seed,
            spec_probability=args.p,
            write_every=args.write_every,
            batch_every=args.batch_every,
            preload=args.preload,
        ),
        faults=plan,
        crash_at=None if args.no_crash else args.crash_at,
        torn_tail=args.torn_tail,
        timeout_s=args.timeout,
        retry=RetryPolicy(
            max_attempts=args.max_attempts,
            base_delay_ms=2.0,
            max_delay_ms=25.0,
        ),
    )
    report = run_chaos_load(tenants, spec)
    violations = report.verify()
    if violations:
        _fail("chaos_invariant_violated", violations=violations)
    if args.json:
        data = report.to_dict()
        print(json.dumps(data, indent=2))
        return 1 if violations else 0
    recovered = sum(
        (info or {}).get("entries", 0)
        for info in report.recovered.values()
    )
    rows = [
        ["tenants x connections",
         f"{len(tenant_names)} x {args.connections}"],
        ["ops (chaos phase)", report.total_ops],
        ["ok", report.ok_ops],
        ["availability", round(report.availability, 4)],
        ["faults injected", report.faults_injected],
        ["crash-restarts", report.crashes],
        ["writes recovered from WAL", recovered],
        ["retries", report.total_retries],
        ["reconnects", report.total_reconnects],
        ["dedup re-acks", report.total_deduped],
        ["invariant violations", len(violations)],
        ["canonical digest", report.canonical_digest()[:16]],
    ]
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=(
                f"Chaos {plan.describe()} over {fs.describe()}: "
                f"crash={'none' if spec.crash_at is None else spec.crash_at}"
            ),
        )
    )
    for message in violations[:10]:
        print(f"VIOLATION {message}")
    return 1 if violations else 0


def _parse_mix(text: str) -> dict[str, int]:
    """Parse ``--mix "***1=50,**11=20"`` into pattern counts."""
    counts: dict[str, int] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        pattern, _, count = part.partition("=")
        try:
            counts[pattern] = int(count)
        except ValueError:
            raise ConfigurationError(
                f"--mix entry {part!r} is not pattern=count"
            ) from None
    if not counts:
        raise ConfigurationError("--mix named no patterns")
    return counts


def _adapt_model(args: argparse.Namespace, fs: FileSystem):
    """The observed mix: from a profile/export file or an inline --mix."""
    from repro.adaptive import EmpiricalQueryModel, load_profile

    if (args.profile is None) == (args.mix is None):
        raise ConfigurationError(
            "give the observed mix as exactly one of --profile (a profile "
            "JSON or obs-export JSONL file) or --mix (inline pattern=count "
            "pairs)"
        )
    if args.profile is not None:
        profile = load_profile(args.profile)
        return EmpiricalQueryModel.from_profile(
            profile, fs.n_fields, tenant=args.tenant
        )
    return EmpiricalQueryModel.from_counts(_parse_mix(args.mix), fs.n_fields)


def _adapt_baseline(args: argparse.Namespace, fs: FileSystem):
    """The deployed method the adaptation is measured against.

    ``--transforms`` pins it explicitly; otherwise the uniform-optimal
    assignment (the best the existing search finds under the paper's
    p=0.5 independence model) — the strongest mix-blind competitor.
    """
    if args.transforms:
        return FXDistribution(fs, transforms=args.transforms)
    if len(fs.small_fields()) <= 6:
        result = exhaustive_assignment_search(fs)
    else:
        result = hill_climb_assignment_search(fs, seed=args.seed)
    return FXDistribution(fs, transforms=list(result.methods))


def _load_factor_rows(model, fs: FileSystem, *methods) -> list[list]:
    """Per-pattern rows: mix weight, then each method's load factor."""
    from repro.adaptive import pattern_to_unspecified
    from repro.analysis.skew import pattern_load_factor

    rows = []
    for indicator, weight in model.frequencies().items():
        pattern = pattern_to_unspecified(indicator, fs.n_fields)
        rows.append(
            [indicator, f"{100 * weight:.1f}%"]
            + [round(pattern_load_factor(m, pattern), 3) for m in methods]
        )
    return rows


def _adapt_plan(args: argparse.Namespace, fs: FileSystem, model, baseline):
    from repro.adaptive import adaptive_transform_search

    return adaptive_transform_search(
        fs,
        model,
        baseline=baseline,
        restarts=args.restarts,
        seed=args.seed,
        linear_draws=args.linear_draws,
    )


def _cmd_adapt_score(args: argparse.Namespace) -> int:
    """Score the deployed assignment against the observed mix."""
    from repro.adaptive import score_method

    fs = _parse_filesystem(args)
    model = _adapt_model(args, fs)
    baseline = _adapt_baseline(args, fs)
    score = score_method(baseline, model)
    if args.json:
        print(
            json.dumps(
                {
                    "method": baseline.describe(),
                    "mix": model.frequencies(),
                    "score": score.to_dict(),
                },
                sort_keys=True,
            )
        )
        return 0
    print(
        format_table(
            ["pattern", "weight", "load factor"],
            _load_factor_rows(model, fs, baseline),
            title=f"Observed mix vs {baseline.describe()}",
        )
    )
    print(f"mix-weighted E[load factor]:      {score.expected_load_factor:.4f}")
    print(f"mix-weighted E[largest response]: "
          f"{score.expected_largest_response:.4f}")
    print(f"lower bound (any allocation):     {score.lower_bound:.4f}  "
          f"(gap {score.gap:.4f})")
    print(f"strict-optimal share of the mix:  "
          f"{100 * score.optimal_weight:.1f}%")
    return 0


def _cmd_adapt_plan(args: argparse.Namespace) -> int:
    """Search for a better assignment; rc 1 when none exists."""
    fs = _parse_filesystem(args)
    model = _adapt_model(args, fs)
    baseline = _adapt_baseline(args, fs)
    plan = _adapt_plan(args, fs, model, baseline)
    if args.json:
        print(json.dumps(plan.to_dict(), sort_keys=True))
        return 0 if plan.worthwhile else 1
    print(
        format_table(
            ["pattern", "weight", "LF now", "LF planned"],
            _load_factor_rows(model, fs, baseline, plan.build()),
            title=f"Adaptive plan for {fs.describe()}",
        )
    )
    print(plan.summary())
    if not plan.worthwhile:
        print("no assignment beats the deployed one on this mix")
        return 1
    return 0


def _cmd_adapt_apply(args: argparse.Namespace) -> int:
    """Plan, hot-swap a durable file, and re-verify from telemetry."""
    import random as random_module

    from repro import obs
    from repro.adaptive import apply_plan
    from repro.api import make_durable_file

    obs.reset_telemetry()
    obs.configure(enabled=True)
    fs = _parse_filesystem(args)
    model = _adapt_model(args, fs)
    plan = _adapt_plan(args, fs, model, _adapt_baseline(args, fs))
    if not plan.worthwhile and not args.force:
        print("no assignment beats the deployed one on this mix; "
              "nothing to apply")
        return 1
    durable = make_durable_file(
        "fx",
        fields=fs.field_sizes,
        devices=fs.m,
        replicate=False,
        transforms=list(plan.baseline_names),
    )
    rng = random_module.Random(args.seed)
    durable.insert_all(
        tuple(rng.randrange(size) for size in fs.field_sizes)
        for __ in range(args.records)
    )
    report = apply_plan(
        durable, plan, model, require_improvement=not args.force
    )
    if args.json:
        print(
            json.dumps(
                {"plan": plan.to_dict(), "swap": report.to_dict()},
                sort_keys=True,
            )
        )
    else:
        print(plan.summary())
        print(report.summary())
        if not report.content_preserved:
            print("ERROR: content digest changed across the migration")
        if report.verified_strict_optimal is False:
            print("ERROR: telemetry replay found bound violations")
    return 0 if report.verified else 1


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def _add_options(parser: argparse.ArgumentParser, *names: str) -> None:
    """Declare the named options on *parser*, one command's own parser.

    Every option that more than one command or action reads is declared
    here, once.  A command that needs another default sets it with
    ``set_defaults`` on its own parser; the parser is built afresh per
    command, so the default reaches no other command.
    """
    for name in names:
        match name:
            case "filesystem":
                parser.add_argument(
                    "--fields", required=True,
                    help="comma-separated field sizes (powers of two), "
                    "e.g. 8,8,16",
                )
                parser.add_argument(
                    "--devices", type=int, required=True,
                    help="number of parallel devices M (a power of two)",
                )
            case "method":
                parser.add_argument(
                    "--method", default="fx", choices=available_methods(),
                    help="distribution method",
                )
            case "seed":
                parser.add_argument(
                    "--seed", type=int, default=0,
                    help="seed for the workload, records and faults",
                )
            case "p":
                parser.add_argument(
                    "--p", type=float, default=0.5,
                    help="per-field specification probability",
                )
            case "json":
                parser.add_argument(
                    "--json", action="store_true",
                    help="emit machine-readable JSON instead of tables",
                )
            case "records":
                parser.add_argument(
                    "--records", type=int, default=64,
                    help="seeded records inserted before the run",
                )
            case "queries":
                parser.add_argument(
                    "--queries", type=int, default=200,
                    help="size of the seeded query workload",
                )
            case "rate":
                parser.add_argument(
                    "--rate", type=float, default=5.0,
                    help="Poisson arrival rate (queries/s)",
                )
            case "deterministic_clock":
                parser.add_argument(
                    "--deterministic-clock", action="store_true",
                    help="inject a manual clock: timestamps (and the "
                    "export bytes) become identical across runs",
                )
            case "tenants":
                parser.add_argument(
                    "--tenants", default="alpha,beta",
                    help="comma-separated tenant namespace names",
                )
            case "connections":
                parser.add_argument(
                    "--connections", type=int, default=2,
                    help="loopback connections (clients) per tenant",
                )
            case "requests":
                parser.add_argument(
                    "--requests", type=int, default=25,
                    help="requests issued by each client or connection",
                )
            case "write_every":
                parser.add_argument(
                    "--write-every", type=int, default=0,
                    help="every k-th request of a client is an insert "
                    "(0 = none)",
                )
            case "batch_every":
                parser.add_argument(
                    "--batch-every", type=int, default=0,
                    help="every k-th op is a multi-query batch frame "
                    "(0 = never)",
                )
            case "preload":
                parser.add_argument(
                    "--preload", type=int, default=16,
                    help="records inserted per tenant before the timed run",
                )
            case "quota":
                parser.add_argument(
                    "--quota", type=int, default=None,
                    help="per-tenant lifetime request quota "
                    "(default: unlimited)",
                )
            case "offset":
                parser.add_argument(
                    "--offset", type=int, default=1,
                    help="chained replica offset (backup of d is "
                    "(d+offset) mod M)",
                )
            case "torn_tail":
                parser.add_argument(
                    "--torn-tail", action="store_true",
                    help="leave half a WAL frame behind at the crash",
                )
            case "transforms":
                parser.add_argument(
                    "--transforms", type=_parse_names, default=None,
                    help="FX transform family per field, comma-separated, "
                    "e.g. I,U,IU1",
                )
            case "fault_plan":
                parser.add_argument(
                    "--fail", default="",
                    help="comma-separated fail-stop devices, e.g. 0,3",
                )
                parser.add_argument(
                    "--error-rate", type=float, default=0.0,
                    help="per-attempt transient read failure probability",
                )
                parser.add_argument(
                    "--slow", default=None,
                    help="straggler latency factors as device:factor "
                    "pairs, e.g. 1:2.0,5:4.0",
                )
                parser.add_argument(
                    "--retries", type=int, default=3,
                    help="max read attempts per device batch",
                )
                parser.add_argument(
                    "--timeout", type=float, default=None,
                    help="per-device timeout (modelled ms)",
                )
            case "trace":
                parser.add_argument(
                    "--trace", default=None,
                    help="replay queries from a trace file instead of the "
                    "seeded workload",
                )
            case "span_filters":
                parser.add_argument(
                    "--tenant", dest="filter_tenant", metavar="TENANT",
                    default=None,
                    help="keep spans attributed to this tenant (resolved "
                    "by walking parent links to the gateway.request span)",
                )
                parser.add_argument(
                    "--trace-id", type=lambda s: int(s, 0), default=None,
                    help="keep spans of one trace (decimal or 0x hex)",
                )
            case "corruption_rate":
                parser.add_argument(
                    "--corruption-rate", type=float, default=0.05,
                    help="per-page corruption probability",
                )
            case "crash_points":
                parser.add_argument(
                    "--crash-after", type=int, default=None,
                    help="crash at this WAL record boundary "
                    "(default: halfway through the workload)",
                )
                parser.add_argument(
                    "--all-offsets", action="store_true",
                    help="sweep every boundary 0..N instead of one",
                )
            case "lose":
                parser.add_argument(
                    "--lose", type=int, default=0,
                    help="device to wipe and reconstruct",
                )
            case "mix":
                parser.add_argument(
                    "--profile", default=None,
                    help="observed mix: a query-mix profile JSON or an "
                    "'obs export' JSONL file",
                )
                parser.add_argument(
                    "--tenant", default=None,
                    help="adapt to this tenant's profiled mix (default: "
                    "all tenants pooled)",
                )
                parser.add_argument(
                    "--mix", default=None,
                    help="observed mix inline: pattern=count pairs, e.g. "
                    "'***1=50,**11=20' ('*' = unspecified field)",
                )
            case "adaptive_search":
                parser.add_argument(
                    "--restarts", type=int, default=4,
                    help="hill-climb restarts (many small fields)",
                )
                parser.add_argument(
                    "--linear-draws", type=int, default=0,
                    help="also try this many random injective GF(2) "
                    "matrix assignments",
                )
            case "serving":
                parser.add_argument(
                    "--max-concurrent", type=int, default=8,
                    help="requests a service runs at once before queueing",
                )
                parser.add_argument(
                    "--queue-limit", type=int, default=32,
                    help="waiting requests beyond which admission sheds",
                )
                parser.add_argument(
                    "--deadline", type=float, default=None,
                    help="per-request deadline in milliseconds",
                )
                parser.add_argument(
                    "--cache-capacity", type=int, default=64,
                    help="result-cache entries per service",
                )
                parser.add_argument(
                    "--verify", action="store_true",
                    help="serial-replay every request log; fail on any "
                    "stale read",
                )
            case _:
                raise ValueError(f"no shared option {name!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="FX declustering for partial match retrieval "
        "(Kim & Pramanik, SIGMOD 1988).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add(group, name, func, help, *options, **defaults):
        """A fresh parser for one command or action, holding *options*."""
        command = group.add_parser(name, help=help, description=help)
        _add_options(command, *options)
        command.set_defaults(func=func, **defaults)
        return command

    def family(name, help):
        """A command whose actions are nested subcommands."""
        return commands.add_parser(
            name, help=help, description=help
        ).add_subparsers(dest="action", required=True)

    report = add(commands, "report", _cmd_report, "regenerate EXPERIMENTS.md")
    report.add_argument("--output", default="EXPERIMENTS.md")
    report.add_argument("--no-exact-figures", action="store_true")
    report.add_argument("--stdout", action="store_true")

    table = add(commands, "table", _cmd_table, "print one of Tables 7-9")
    table.add_argument("which", choices=["table7", "table8", "table9"])

    figure = add(commands, "figure", _cmd_figure,
                 "print one of Figures 1-4", "p")
    figure.add_argument(
        "which", choices=["figure1", "figure2", "figure3", "figure4"]
    )
    figure.add_argument("--chart", action="store_true", help="ASCII chart too")

    census = add(commands, "census", _cmd_census,
                 "strict-optimality census of one method",
                 "filesystem", "method", "transforms")
    census.add_argument(
        "--multipliers", help="gdm only: comma-separated multipliers"
    )
    census.add_argument(
        "--failures", type=int, default=5,
        help="how many worst failures to list (0 = none)",
    )

    add(commands, "skew", _cmd_skew, "skew profile of standard methods",
        "filesystem", "p")

    search = add(commands, "search", _cmd_search,
                 "search transform assignments", "filesystem", "seed", "p")
    search.add_argument(
        "--space", choices=["families", "linear"], default="families"
    )
    search.add_argument("--iterations", type=int, default=300,
                        help="linear search draws")

    design = add(commands, "design", _cmd_design,
                 "optimal directory bits from query statistics")
    design.add_argument(
        "--probabilities",
        required=True,
        help="per-field specification probabilities, e.g. 0.9,0.5,0.1",
    )
    design.add_argument("--bits", type=int, required=True,
                        help="total directory bits (log2 of bucket count)")
    design.add_argument("--max-bits", type=int, default=None,
                        help="optional per-field bit cap")

    add(commands, "simulate", _cmd_simulate,
        "concurrent workload latency comparison",
        "filesystem", "queries", "rate", "p", "seed", "json")

    faults = family(
        "faults", "fault-tolerant runtime: simulation and availability"
    )
    run = add(faults, "run", _cmd_faults_run,
              "stream a workload under a fault plan",
              "filesystem", "method", "offset", "fault_plan", "seed",
              "queries", "rate", "p", "json")
    run.add_argument(
        "--replicate", action="store_true",
        help="attach a chained replica scheme for failover",
    )
    availability = add(
        faults, "report", _cmd_faults_report,
        "availability curves, failover demo and runtime counters",
        "filesystem", "offset", "fault_plan", "seed", "queries", "p", "json",
        fail="0",
    )
    availability.add_argument("--max-failures", type=int, default=2,
                              help="largest simultaneous failure count k")

    add(commands, "recommend", _cmd_recommend,
        "rank declustering methods for a configuration", "filesystem", "p")

    verify = add(commands, "verify", _cmd_verify,
                 "cross-check the exact engines on a configuration",
                 "filesystem")
    verify.add_argument("--method", default="fx", choices=["fx", "modulo"])
    verify.add_argument(
        "--policy", choices=["paper", "theorem9"],
        help="fx only: transform policy (default paper)",
    )

    obs = family("obs", "telemetry: replay a workload and report, export, "
                 "tail or check it, or report SLOs over the wire")
    replay = ("filesystem", "method", "trace", "queries", "p", "seed",
              "deterministic_clock")
    add(obs, "report", _cmd_obs_report,
        "replay, then print the metrics and latency tables",
        *replay, "records", queries=50)
    export = add(obs, "export", _cmd_obs_export,
                 "replay, then write the structured run as JSONL",
                 *replay, "records", "span_filters", queries=50)
    export.add_argument("--jsonl", default="-",
                        help="output path ('-' = stdout)")
    export.add_argument("--validate", action="store_true",
                        help="validate every record against the schema")
    tail = add(obs, "tail", _cmd_obs_tail,
               "replay, then print the most recent spans",
               *replay, "records", "span_filters", queries=50)
    tail.add_argument("--lines", type=int, default=20,
                      help="spans to print")
    check = add(obs, "check", _cmd_obs_check,
                "verify strict optimality from telemetry alone",
                *replay, queries=50)
    check.add_argument(
        "--batched", action="store_true",
        help="replay through the array batch engine and audit its "
        "query.batch span instead of serial query.execute",
    )
    add(obs, "slo", _cmd_obs_slo,
        "serve a loopback multi-tenant load and report per-tenant error "
        "budgets over the wire",
        "filesystem", "method", "tenants", "connections", "requests",
        "quota", "records", "p", "seed", "deterministic_clock", "json")

    recover = family(
        "recover",
        "durability drills: scrub-and-repair, crash replay, rebuild",
    )
    drill = ("filesystem", "method", "records", "seed", "offset",
             "deterministic_clock", "json")
    scrub = ("corruption_rate",)
    crash = ("crash_points", "torn_tail")
    rebuild = ("lose", "queries", "p")
    add(recover, "scrub", _cmd_recover_scrub,
        "corrupt pages, then repair them from replicas", *drill, *scrub)
    add(recover, "replay", _cmd_recover_replay,
        "crash at WAL boundaries and verify byte-identical recovery",
        *drill, *crash)
    add(recover, "rebuild", _cmd_recover_rebuild,
        "lose a device, rebuild it from replicas and re-verify optimality "
        "(--queries 0 skips the check)", *drill, *rebuild, queries=20)
    add(recover, "report", _cmd_recover_report,
        "all three drills plus the durability counters",
        *drill, *scrub, *crash, *rebuild, queries=20)

    serving = ("filesystem", "method", "seed", "p", "requests",
               "write_every", "serving", "json")
    serve = add(commands, "serve", _cmd_serve,
                "drive the concurrent serving tier with a closed-loop load",
                *serving, "records", requests=50)
    serve.add_argument("--clients", type=int, default=8,
                       help="closed-loop client threads")
    serve.add_argument(
        "--hot-fraction", type=float, default=0.5,
        help="fraction of queries drawn from a small shared hot pool",
    )
    serve.add_argument(
        "--allow-degraded", action="store_true",
        help="exit 0 even when requests were shed or timed out "
             "(default: degraded runs fail with a structured error)",
    )

    gateway = add(commands, "gateway", _cmd_gateway,
                  "serve multiple tenants over TCP and drive a loopback load",
                  *serving, "tenants", "connections", "batch_every",
                  "preload", "quota", connections=4, write_every=5)
    gateway.add_argument("--host", default="127.0.0.1", help="bind address")
    gateway.add_argument("--port", type=int, default=0,
                         help="bind port (0 picks a free one)")
    gateway.add_argument(
        "--listen", action="store_true",
        help="serve until interrupted instead of driving a loopback load",
    )
    gateway.add_argument(
        "--rate", type=float, default=None,
        help="per-tenant token-bucket refill rate, requests/s",
    )
    gateway.add_argument("--burst", type=int, default=8,
                         help="token-bucket burst size")
    gateway.add_argument("--max-inflight", type=int, default=None,
                         help="per-tenant concurrent-request cap")
    gateway.add_argument(
        "--max-connections", type=int, default=32,
        help="total connections accepted before busy-rejecting",
    )
    gateway.add_argument(
        "--export-jsonl", default=None,
        help="after the load, write the telemetry stream (propagated "
        "traces included) as canonical JSONL to this path",
    )

    chaos = add(commands, "chaos", _cmd_chaos,
                "inject deterministic wire faults + a crash-restart and "
                "prove zero stale reads / exactly-once acked writes",
                "filesystem", "method", "tenants", "connections", "requests",
                "seed", "p", "write_every", "batch_every", "preload",
                "torn_tail", "json", requests=16, write_every=3, preload=4)
    chaos.add_argument(
        "--fault-rate", type=float, default=0.05,
        help="per-exchange rate of EACH fault kind (reset/tear/dup/delay)",
    )
    chaos.add_argument(
        "--refuse-rate", type=float, default=None,
        help="per-connection refusal rate (default: --fault-rate)",
    )
    chaos.add_argument(
        "--delay-ms", type=float, default=5.0,
        help="how long a delay fault holds a response back",
    )
    chaos.add_argument(
        "--crash-at", type=float, default=0.5,
        help="crash-restart the gateway after this fraction of each "
        "client's ops",
    )
    chaos.add_argument("--no-crash", action="store_true",
                       help="skip the crash-restart (wire faults only)")
    chaos.add_argument("--timeout", type=float, default=10.0,
                       help="socket deadline of each client attempt (s)")
    chaos.add_argument("--max-attempts", type=int, default=6,
                       help="retry budget per logical request")

    adapt = family(
        "adapt",
        "workload-adaptive declustering: score the deployed assignment "
        "against an observed mix, search for a better one, or hot-swap "
        "onto it crash-safely",
    )
    observed = ("filesystem", "mix", "transforms", "seed", "json")
    add(adapt, "score", _cmd_adapt_score,
        "mix-weighted load factor of the deployed assignment and the gap "
        "to the lower bound", *observed)
    add(adapt, "plan", _cmd_adapt_plan,
        "search for a better assignment (rc 1 if none)",
        *observed, "adaptive_search")
    apply = add(adapt, "apply", _cmd_adapt_apply,
                "plan, migrate a durable file through the WAL-audited path "
                "and re-verify optimality from telemetry (rc 1 unless "
                "verified)", *observed, "adaptive_search", "records",
                records=128)
    apply.add_argument("--force", action="store_true",
                       help="swap even without improvement")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        parser.exit(2, f"error: {error}\n")
        return 2  # pragma: no cover - parser.exit raises
