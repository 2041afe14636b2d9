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
``recommend`` rank methods for a file system and workload,
``faults``   fault-tolerant runtime: stream simulation under a fault plan
             (``run``) or availability curves plus runtime counters
             (``report``),
``obs``      telemetry: replay a workload and render the metrics/latency
             report (``report``), export the structured run as JSONL
             (``export``), print the last spans (``tail``), or verify
             strict optimality from telemetry alone (``check``),
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
``adapt``    workload-adaptive declustering: score the deployed transform
             assignment against an observed query mix (``score``), search
             for a better one and report the gap to the lower bound
             (``plan``), or hot-swap a durable file onto it through the
             WAL-audited migration path and re-verify optimality from
             telemetry (``apply``).

File systems are given as ``--fields 8,8,16 --devices 32``.  The sweeping
commands (``census``, ``search``) accept ``--parallel N`` to fan the
per-pattern / per-assignment work over N threads (0 = one per CPU) with
results identical to serial runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Sequence

from repro.analysis.ascii_chart import render_series
from repro.api import default_gdm_multipliers, make_method, method_names
from repro.core.fx import FXDistribution
from repro.core.linear import random_matrix_search
from repro.core.optimality import optimality_report
from repro.distribution.base import available_methods, create_method
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


def _parse_filesystem(args: argparse.Namespace) -> FileSystem:
    sizes = _parse_numbers(args.fields, int, "--fields")
    return FileSystem.of(*sizes, m=args.devices)


def _add_filesystem_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fields",
        required=True,
        help="comma-separated field sizes (powers of two), e.g. 8,8,16",
    )
    parser.add_argument(
        "--devices",
        type=int,
        required=True,
        help="number of parallel devices M (a power of two)",
    )


def _serving_parser() -> argparse.ArgumentParser:
    """The options ``serve`` and ``gateway`` share, as a parent parser.

    Built afresh per command: argparse shares a parent's actions with
    every child, so one instance would let a child's ``set_defaults``
    (``--requests`` and ``--write-every`` differ) leak into the other.
    """
    parser = argparse.ArgumentParser(add_help=False)
    _add_filesystem_arguments(parser)
    parser.add_argument(
        "--method", default="fx", choices=list(method_names()),
        help="distribution method of the served file(s)",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the records and request logs")
    parser.add_argument("--p", type=float, default=0.5,
                        help="per-field specification probability")
    parser.add_argument("--requests", type=int,
                        help="requests issued by each client or connection")
    parser.add_argument(
        "--write-every", type=int, dest="write_every",
        help="every k-th request of a client is an insert (0 = none)",
    )
    parser.add_argument(
        "--max-concurrent", type=int, default=8, dest="max_concurrent",
        help="requests a service runs at once before queueing",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=32, dest="queue_limit",
        help="waiting requests beyond which admission sheds",
    )
    parser.add_argument(
        "--deadline", type=float, default=None,
        help="per-request deadline in milliseconds",
    )
    parser.add_argument(
        "--cache-capacity", type=int, default=64, dest="cache_capacity",
        help="result-cache entries per service",
    )
    parser.add_argument(
        "--verify", action="store_true",
        help="serial-replay every request log; fail on any stale read",
    )
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of tables")
    return parser


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


def _cmd_census(args: argparse.Namespace) -> int:
    fs = _parse_filesystem(args)
    kwargs: dict[str, object] = {}
    if args.method == "gdm":
        kwargs["multipliers"] = tuple(
            _parse_numbers(args.multipliers, int, "--multipliers")
        ) or default_gdm_multipliers(fs.n_fields)
    if args.method == "fx" and args.transforms:
        kwargs["transforms"] = args.transforms.split(",")
    method = create_method(args.method, fs, **kwargs)
    report = optimality_report(method, parallel=args.parallel)
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
    from repro.distribution.gdm import GDMDistribution
    from repro.distribution.modulo import ModuloDistribution

    fs = _parse_filesystem(args)
    methods = [
        FXDistribution(fs, policy="theorem9"),
        FXDistribution(fs, policy="paper"),
        ModuloDistribution(fs),
        GDMDistribution(fs, multipliers=default_gdm_multipliers(fs.n_fields)),
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
            result = exhaustive_assignment_search(
                fs, p=args.p, parallel=args.parallel
            )
            how = f"exhaustive, {result.evaluations} assignments"
        else:
            result = hill_climb_assignment_search(
                fs, p=args.p, seed=args.seed, parallel=args.parallel
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
    from repro.distribution.gdm import GDMDistribution
    from repro.distribution.modulo import ModuloDistribution
    from repro.query.workload import QueryWorkload, WorkloadSpec
    from repro.storage.costs import DiskCostModel
    from repro.storage.simulator import ParallelQuerySimulator, poisson_arrivals

    fs = _parse_filesystem(args)
    workload = QueryWorkload(
        fs,
        WorkloadSpec(spec_probability=args.p, exclude_trivial=True,
                     seed=args.seed),
    )
    arrivals = poisson_arrivals(
        workload, args.queries, rate_qps=args.rate, seed=args.seed
    )
    methods = {
        "FX": FXDistribution(fs, policy="paper"),
        "Modulo": ModuloDistribution(fs),
        "GDM": GDMDistribution(
            fs, multipliers=default_gdm_multipliers(fs.n_fields)
        ),
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
    if args.method == "fx":
        method = FXDistribution(fs, policy=args.policy)
    else:
        method = create_method(args.method, fs)
    report = verify_method(method)
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


def _parse_fault_plan(args: argparse.Namespace, default_fail=""):
    from repro.runtime import FaultPlan

    return FaultPlan(
        seed=args.seed,
        failed_devices=frozenset(
            _parse_numbers(
                args.fail if args.fail is not None else default_fail,
                int,
                "device list",
            )
        ),
        transient_error_rate=args.error_rate,
        slow_factors=_parse_slow_map(args.slow),
    )


def _cmd_faults(args: argparse.Namespace) -> int:
    if args.action == "run":
        return _cmd_faults_run(args)
    return _cmd_faults_report(args)


def _cmd_faults_run(args: argparse.Namespace) -> int:
    """Stream a seeded workload through the fault-aware simulator."""
    from repro.distribution.replicated import ChainedReplicaScheme
    from repro.query.workload import QueryWorkload, WorkloadSpec
    from repro.runtime import FaultAwareQuerySimulator, RetryPolicy
    from repro.storage.costs import DiskCostModel
    from repro.storage.simulator import poisson_arrivals

    fs = _parse_filesystem(args)
    method = make_method(args.method, fields=fs.field_sizes, devices=fs.m)
    scheme = (
        ChainedReplicaScheme(method, offset=args.offset)
        if args.replicate
        else None
    )
    plan = _parse_fault_plan(args)
    retry = RetryPolicy(max_attempts=args.retries, timeout_ms=args.timeout)
    workload = QueryWorkload(
        fs,
        WorkloadSpec(spec_probability=args.p, exclude_trivial=True,
                     seed=args.seed),
    )
    arrivals = poisson_arrivals(
        workload, args.queries, rate_qps=args.rate, seed=args.seed
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
    import random as _random

    from repro.analysis.availability import degraded_response_curve
    from repro.distribution.replicated import ChainedReplicaScheme
    from repro.obs.metrics import default_registry
    from repro.query.workload import QueryWorkload, WorkloadSpec
    from repro.runtime import DegradedExecutor, RetryPolicy
    from repro.storage.costs import DiskCostModel
    from repro.storage.parallel_file import PartitionedFile
    from repro.storage.replicated_file import ReplicatedFile

    fs = _parse_filesystem(args)
    default_registry().reset_perf()
    plan = _parse_fault_plan(args, default_fail="0")
    retry = RetryPolicy(max_attempts=args.retries, timeout_ms=args.timeout)
    workload = QueryWorkload(
        fs,
        WorkloadSpec(spec_probability=args.p, exclude_trivial=True,
                     seed=args.seed),
    )
    queries = [workload.next_query() for __ in range(min(args.queries, 25))]

    fx = make_method("fx", fields=fs.field_sizes, devices=fs.m)
    modulo = make_method("modulo", fields=fs.field_sizes, devices=fs.m)
    replicated_fx = make_method(
        "replicated", fields=fs.field_sizes, devices=fs.m,
        base="fx", offset=args.offset,
    )
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
    rng = _random.Random(args.seed)
    records = [
        tuple(rng.randrange(1024) for __ in range(fs.n_fields))
        for __ in range(64)
    ]
    replicated = ReplicatedFile(
        ChainedReplicaScheme(
            make_method("fx", fields=fs.field_sizes, devices=fs.m),
            offset=args.offset,
        )
    )
    replicated.insert_all(records)
    plain = PartitionedFile(
        make_method("fx", fields=fs.field_sizes, devices=fs.m)
    )
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
    from repro.query.workload import QueryWorkload, WorkloadSpec

    fs = _parse_filesystem(args)
    method = make_method(args.method, fields=fs.field_sizes, devices=fs.m)
    if args.trace:
        queries = load_trace(fs, args.trace)
    else:
        workload = QueryWorkload(
            fs,
            WorkloadSpec(spec_probability=args.p, exclude_trivial=True,
                         seed=args.seed),
        )
        queries = workload.take(args.queries)
    return method, queries


def _obs_replay(args: argparse.Namespace):
    """Reset telemetry, then replay the workload end to end.

    ``--deterministic-clock`` injects a :class:`~repro.obs.ManualClock`
    first, which makes the whole run — span timestamps *and* the
    perf-counter seconds — reproducible, so ``obs export`` output is
    byte-identical across runs.
    """
    import random as _random

    from repro import obs
    from repro.engine.plan import ArrayBatchPlanner
    from repro.storage.executor import QueryExecutor
    from repro.storage.parallel_file import PartitionedFile

    if args.deterministic_clock:
        obs.configure(clock=obs.ManualClock(step=0.001), reset=True)
    else:
        obs.reset_telemetry()
    method, queries = _obs_queries(args)
    fs = method.filesystem
    pf = PartitionedFile(method)
    rng = _random.Random(args.seed)
    pf.insert_all(
        [
            tuple(rng.randrange(1024) for __ in range(fs.n_fields))
            for __ in range(args.records)
        ]
    )
    executor = QueryExecutor(pf)
    for query in queries:
        executor.execute(query)
    if len(queries) > 1:
        ArrayBatchPlanner(method).plan(queries)
    return method, queries


def _cmd_obs(args: argparse.Namespace) -> int:
    if args.action == "report":
        return _cmd_obs_report(args)
    if args.action == "export":
        return _cmd_obs_export(args)
    if args.action == "tail":
        return _cmd_obs_tail(args)
    if args.action == "slo":
        return _cmd_obs_slo(args)
    return _cmd_obs_check(args)


def _span_keep(args: argparse.Namespace):
    """Span predicate for the ``--tenant`` / ``--trace-id`` filters.

    Returns None when no filter is active (keep everything, including
    non-span records).  Tenant membership is resolved by walking parent
    links to the owning ``gateway.request`` span, the same attribution
    the query-mix profiler uses.
    """
    tenant = getattr(args, "filter_tenant", None)
    trace_id = getattr(args, "trace_id", None)
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
          f"({events.appended} recorded)")
    return 0


def _cmd_obs_export(args: argparse.Namespace) -> int:
    """Replay, then write the structured run as canonical JSONL."""
    import sys

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
    from repro import obs
    from repro.obs import ObservedOptimalityChecker

    if args.deterministic_clock:
        obs.configure(clock=obs.ManualClock(step=0.001), reset=True)
    else:
        obs.reset_telemetry()
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


def _cmd_obs_slo(args: argparse.Namespace) -> int:
    """Serve a loopback multi-tenant load, then report SLO budgets.

    The snapshot is fetched through the ``{"op": "obs"}`` wire operation
    (not read from process-local state), so the command exercises the
    same path an external monitor would: framed request in, labeled
    metrics + per-tenant SLO budgets out.
    """
    from repro import obs
    from repro.api import make_gateway
    from repro.gateway import GatewayLoadSpec, run_loopback_load
    from repro.gateway.client import GatewayClient
    from repro.obs.slo import SloReport

    if args.deterministic_clock:
        obs.configure(clock=obs.ManualClock(step=0.001), reset=True)
    else:
        obs.reset_telemetry()
    fs = _parse_filesystem(args)
    tenant_names = [
        name.strip() for name in args.tenants.split(",") if name.strip()
    ]
    gateway = make_gateway(
        {name: {"request_quota": args.quota} for name in tenant_names},
        fields=fs.field_sizes,
        devices=fs.m,
        method=args.method,
    )
    host, port = gateway.start()
    try:
        load = run_loopback_load(
            (host, port),
            list(gateway.tenants.values()),
            GatewayLoadSpec(
                connections_per_tenant=args.connections,
                requests_per_connection=args.requests,
                seed=args.seed,
                spec_probability=args.p,
                preload=min(args.records, 32),
            ),
        )
        with GatewayClient(host, port) as client:
            snapshot = client.obs()
    finally:
        clean = gateway.drain()
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


def _seeded_records(fs: FileSystem, count: int, seed: int) -> list[tuple]:
    """The deterministic record stream every recover action inserts."""
    import random as _random

    rng = _random.Random(seed)
    return [
        tuple(rng.randrange(1024) for __ in range(fs.n_fields))
        for __ in range(count)
    ]


def _recover_telemetry(args: argparse.Namespace) -> None:
    from repro import obs

    if getattr(args, "deterministic_clock", False):
        obs.configure(clock=obs.ManualClock(step=0.001), reset=True)
    else:
        obs.reset_telemetry()


def _cmd_recover(args: argparse.Namespace) -> int:
    if args.action == "scrub":
        return _cmd_recover_scrub(args)
    if args.action == "replay":
        return _cmd_recover_replay(args)
    if args.action == "rebuild":
        return _cmd_recover_rebuild(args)
    return _cmd_recover_report(args)


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
    _recover_telemetry(args)
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
    _recover_telemetry(args)
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
    from repro.query.workload import QueryWorkload, WorkloadSpec

    fs = _parse_filesystem(args)
    durable = make_durable_file(
        args.method, fields=fs.field_sizes, devices=fs.m, offset=args.offset
    )
    durable.insert_all(_seeded_records(fs, args.records, args.seed))
    before = durable.state_digest()
    durable.file.lose_device(args.lose)
    workload = QueryWorkload(
        fs,
        WorkloadSpec(spec_probability=args.p, exclude_trivial=True,
                     seed=args.seed),
    )
    queries = workload.take(args.queries) if args.queries else None
    report = DeviceRebuilder(durable.file).rebuild(
        args.lose, queries=queries
    )
    identical = durable.state_digest() == before
    data = report.to_dict()
    data["digest_identical"] = identical
    data["ok"] = identical and report.optimality_verified is not False
    return data


def _cmd_recover_rebuild(args: argparse.Namespace) -> int:
    _recover_telemetry(args)
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

    _recover_telemetry(args)
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
    initial = _seeded_records(fs, args.records, args.seed)
    service.file.insert_all(initial)
    generator = LoadGenerator(
        service,
        LoadSpec(
            clients=args.clients,
            requests_per_client=args.requests,
            seed=args.seed,
            spec_probability=args.p,
            write_every=args.write_every,
            hot_fraction=args.hot_fraction,
            deadline_ms=args.deadline,
        ),
    )
    report = generator.run()
    data = report.to_dict()
    mismatches: list[str] = []
    if args.verify:
        mismatches = report.verify(
            service.file.multikey_hash, initial_records=initial
        )
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
        # Machine-readable failure on stderr so scripted callers (CI, make
        # targets) can tell "load was shed" apart from a crash.
        print(
            json.dumps(
                {
                    "v": 1,
                    "error": {
                        "code": "degraded_load",
                        "message": "load run ended with shed or timed-out "
                        "requests (pass --allow-degraded to tolerate)",
                        "shed": shed,
                        "timeout": timed_out,
                    },
                }
            ),
            file=sys.stderr,
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
    """Run the multi-tenant network gateway over a loopback load."""
    from repro import obs
    from repro.api import make_gateway
    from repro.gateway import GatewayLoadSpec, run_loopback_load

    obs.reset_telemetry()
    fs = _parse_filesystem(args)
    tenant_names = [
        name.strip() for name in args.tenants.split(",") if name.strip()
    ]
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
    host, port = gateway.start()
    if args.listen:
        print(f"gateway listening on {host}:{port} "
              f"(tenants: {', '.join(tenant_names)}; Ctrl-C to drain)")
        try:
            while True:
                time.sleep(1.0)
        except KeyboardInterrupt:
            pass
        clean = gateway.drain()
        return 0 if clean else 1

    report = run_loopback_load(
        (host, port),
        list(gateway.tenants.values()),
        GatewayLoadSpec(
            connections_per_tenant=args.connections,
            requests_per_connection=args.requests,
            seed=args.seed,
            spec_probability=args.p,
            write_every=args.write_every,
            batch_every=args.batch_every,
            preload=args.preload,
            deadline_ms=args.deadline,
        ),
    )
    clean_drain = gateway.drain()
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
    ok = not report.errors and not mismatches and clean_drain
    if not ok:
        print(
            json.dumps(
                {
                    "v": 1,
                    "error": {
                        "code": "gateway_load_failed",
                        "transport_errors": len(report.errors),
                        "stale_tenants": sorted(mismatches),
                        "clean_drain": clean_drain,
                    },
                }
            ),
            file=sys.stderr,
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
    total_rejected = sum(
        count
        for codes in report.rejections.values()
        for count in codes.values()
    )
    rows = [
        ["tenants", len(tenant_names)],
        ["connections per tenant", args.connections],
        ["requests completed", report.completed],
        ["rejected (quota / rate)", total_rejected],
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

    obs.reset_telemetry()
    fs = _parse_filesystem(args)
    tenant_names = [
        name.strip() for name in args.tenants.split(",") if name.strip()
    ]
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
        connections_per_tenant=args.connections,
        requests_per_connection=args.requests,
        seed=args.seed,
        spec_probability=args.p,
        write_every=args.write_every,
        batch_every=args.batch_every,
        preload=args.preload,
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
        print(
            json.dumps(
                {
                    "v": 1,
                    "error": {
                        "code": "chaos_invariant_violated",
                        "violations": violations,
                    },
                }
            ),
            file=sys.stderr,
        )
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
        names = [t.strip() for t in args.transforms.split(",") if t.strip()]
        return FXDistribution(fs, transforms=names)
    if len(fs.small_fields()) <= 6:
        result = exhaustive_assignment_search(fs, parallel=args.parallel)
    else:
        result = hill_climb_assignment_search(
            fs, seed=args.seed, parallel=args.parallel
        )
    return FXDistribution(fs, transforms=list(result.methods))


def _adapt_pattern_rows(plan, model, fs: FileSystem) -> list[list[object]]:
    """Per-pattern table: weight and before/after load factors."""
    from repro.adaptive import pattern_to_unspecified
    from repro.analysis.skew import pattern_load_factor

    baseline = FXDistribution(fs, transforms=list(plan.baseline_names))
    candidate = plan.build()
    rows = []
    for indicator, weight in model.frequencies().items():
        pattern = pattern_to_unspecified(indicator, fs.n_fields)
        rows.append(
            [
                indicator,
                f"{100 * weight:.1f}%",
                round(pattern_load_factor(baseline, pattern), 3),
                round(pattern_load_factor(candidate, pattern), 3),
            ]
        )
    return rows


def _adapt_plan(args: argparse.Namespace, fs: FileSystem, model):
    from repro.adaptive import adaptive_transform_search

    return adaptive_transform_search(
        fs,
        model,
        baseline=_adapt_baseline(args, fs),
        restarts=args.restarts,
        seed=args.seed,
        linear_draws=args.linear_draws,
    )


def _cmd_adapt_score(args: argparse.Namespace) -> int:
    """Score the deployed assignment against the observed mix."""
    from repro.adaptive import score_method
    from repro.analysis.skew import pattern_load_factor

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
    rows = []
    for indicator, weight in model.frequencies().items():
        from repro.adaptive import pattern_to_unspecified

        pattern = pattern_to_unspecified(indicator, fs.n_fields)
        rows.append(
            [
                indicator,
                f"{100 * weight:.1f}%",
                round(pattern_load_factor(baseline, pattern), 3),
            ]
        )
    print(
        format_table(
            ["pattern", "weight", "load factor"],
            rows,
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
    plan = _adapt_plan(args, fs, model)
    if args.json:
        print(json.dumps(plan.to_dict(), sort_keys=True))
        return 0 if plan.worthwhile else 1
    print(
        format_table(
            ["pattern", "weight", "LF now", "LF planned"],
            _adapt_pattern_rows(plan, model, fs),
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
    plan = _adapt_plan(args, fs, model)
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


def _cmd_adapt(args: argparse.Namespace) -> int:
    if args.action == "score":
        return _cmd_adapt_score(args)
    if args.action == "plan":
        return _cmd_adapt_plan(args)
    return _cmd_adapt_apply(args)


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="FX declustering for partial match retrieval "
        "(Kim & Pramanik, SIGMOD 1988).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    report.add_argument("--output", default="EXPERIMENTS.md")
    report.add_argument("--no-exact-figures", action="store_true")
    report.add_argument("--stdout", action="store_true")
    report.set_defaults(func=_cmd_report)

    table = sub.add_parser("table", help="print one of Tables 7-9")
    table.add_argument("which", choices=["table7", "table8", "table9"])
    table.set_defaults(func=_cmd_table)

    figure = sub.add_parser("figure", help="print one of Figures 1-4")
    figure.add_argument(
        "which", choices=["figure1", "figure2", "figure3", "figure4"]
    )
    figure.add_argument("--chart", action="store_true", help="ASCII chart too")
    figure.add_argument("--p", type=float, default=0.5,
                        help="per-field specification probability")
    figure.set_defaults(func=_cmd_figure)

    census = sub.add_parser(
        "census", help="strict-optimality census of one method"
    )
    _add_filesystem_arguments(census)
    census.add_argument(
        "--method", default="fx", choices=sorted(available_methods())
    )
    census.add_argument(
        "--transforms", help="fx only: comma-separated families, e.g. I,U,IU1"
    )
    census.add_argument(
        "--multipliers", help="gdm only: comma-separated multipliers"
    )
    census.add_argument(
        "--failures", type=int, default=5,
        help="how many worst failures to list (0 = none)",
    )
    census.add_argument(
        "--parallel", type=int, default=None,
        help="threads for the pattern sweep (0 = one per CPU)",
    )
    census.set_defaults(func=_cmd_census)

    skew = sub.add_parser("skew", help="skew profile of standard methods")
    _add_filesystem_arguments(skew)
    skew.add_argument("--p", type=float, default=0.5)
    skew.set_defaults(func=_cmd_skew)

    search = sub.add_parser("search", help="search transform assignments")
    _add_filesystem_arguments(search)
    search.add_argument(
        "--space", choices=["families", "linear"], default="families"
    )
    search.add_argument("--iterations", type=int, default=300,
                        help="linear search draws")
    search.add_argument("--seed", type=int, default=0)
    search.add_argument("--p", type=float, default=0.5)
    search.add_argument(
        "--parallel", type=int, default=None,
        help="threads for assignment scoring (0 = one per CPU)",
    )
    search.set_defaults(func=_cmd_search)

    design = sub.add_parser(
        "design", help="optimal directory bits from query statistics"
    )
    design.add_argument(
        "--probabilities",
        required=True,
        help="per-field specification probabilities, e.g. 0.9,0.5,0.1",
    )
    design.add_argument("--bits", type=int, required=True,
                        help="total directory bits (log2 of bucket count)")
    design.add_argument("--max-bits", type=int, default=None,
                        help="optional per-field bit cap")
    design.set_defaults(func=_cmd_design)

    simulate = sub.add_parser(
        "simulate", help="concurrent workload latency comparison"
    )
    _add_filesystem_arguments(simulate)
    simulate.add_argument("--queries", type=int, default=200)
    simulate.add_argument("--rate", type=float, default=5.0,
                          help="Poisson arrival rate (queries/s)")
    simulate.add_argument("--p", type=float, default=0.5)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--json", action="store_true",
        help="emit the full simulation reports as JSON",
    )
    simulate.set_defaults(func=_cmd_simulate)

    faults = sub.add_parser(
        "faults", help="fault-tolerant runtime: simulation and availability"
    )
    faults.add_argument(
        "action", choices=["run", "report"],
        help="run = stream a workload under a fault plan; "
        "report = availability curves, failover demo and counters",
    )
    _add_filesystem_arguments(faults)
    faults.add_argument(
        "--method", default="fx",
        choices=[n for n in method_names() if n != "replicated"],
        help="base distribution method (run only)",
    )
    faults.add_argument(
        "--replicate", action="store_true",
        help="run only: attach a chained replica scheme for failover",
    )
    faults.add_argument(
        "--offset", type=int, default=1,
        help="chained replica offset (backup of d is (d+offset) mod M)",
    )
    faults.add_argument(
        "--fail", default=None,
        help="comma-separated fail-stop devices, e.g. 0,3 "
        "(report defaults to 0)",
    )
    faults.add_argument(
        "--error-rate", type=float, default=0.0,
        help="per-attempt transient read failure probability",
    )
    faults.add_argument(
        "--slow", default=None,
        help="straggler latency factors as device:factor pairs, "
        "e.g. 1:2.0,5:4.0",
    )
    faults.add_argument("--seed", type=int, default=0)
    faults.add_argument("--queries", type=int, default=200)
    faults.add_argument("--rate", type=float, default=5.0,
                        help="Poisson arrival rate (run only, queries/s)")
    faults.add_argument("--p", type=float, default=0.5)
    faults.add_argument("--retries", type=int, default=3,
                        help="max read attempts per device batch")
    faults.add_argument("--timeout", type=float, default=None,
                        help="per-device timeout (modelled ms)")
    faults.add_argument(
        "--max-failures", type=int, default=2,
        help="report only: largest simultaneous failure count k",
    )
    faults.add_argument("--json", action="store_true")
    faults.set_defaults(func=_cmd_faults)

    recommend = sub.add_parser(
        "recommend", help="rank declustering methods for a configuration"
    )
    _add_filesystem_arguments(recommend)
    recommend.add_argument("--p", type=float, default=0.5)
    recommend.set_defaults(func=_cmd_recommend)

    verify = sub.add_parser(
        "verify", help="cross-check the exact engines on a configuration"
    )
    _add_filesystem_arguments(verify)
    verify.add_argument(
        "--method", default="fx", choices=["fx", "modulo"]
    )
    verify.add_argument(
        "--policy", default="paper", choices=["paper", "theorem9"]
    )
    verify.set_defaults(func=_cmd_verify)

    obs = sub.add_parser(
        "obs", help="telemetry: replay a workload, report/export/tail/check"
    )
    obs.add_argument(
        "action", choices=["report", "export", "tail", "check", "slo"],
        help="report = metrics and latency tables; export = structured "
        "JSONL; tail = most recent spans; check = verify strict "
        "optimality from telemetry alone; slo = serve a loopback "
        "multi-tenant load and report per-tenant error budgets over "
        "the wire",
    )
    _add_filesystem_arguments(obs)
    obs.add_argument(
        "--method", default="fx",
        choices=[n for n in method_names() if n != "replicated"],
        help="distribution method to replay against",
    )
    obs.add_argument(
        "--trace", default=None,
        help="replay queries from a trace file instead of a random workload",
    )
    obs.add_argument("--queries", type=int, default=50,
                     help="random workload size when no trace is given")
    obs.add_argument("--records", type=int, default=64,
                     help="records inserted before the replay")
    obs.add_argument("--p", type=float, default=0.5)
    obs.add_argument("--seed", type=int, default=0)
    obs.add_argument(
        "--deterministic-clock", action="store_true",
        help="inject a manual clock: timestamps (and the export bytes) "
        "become identical across runs",
    )
    obs.add_argument(
        "--jsonl", default="-",
        help="export only: output path ('-' = stdout)",
    )
    obs.add_argument(
        "--validate", action="store_true",
        help="export only: validate every record against the schema",
    )
    obs.add_argument("--lines", type=int, default=20,
                     help="tail only: spans to print")
    obs.add_argument(
        "--batched", action="store_true",
        help="check only: replay through the array batch engine and "
        "audit its query.batch span instead of serial query.execute",
    )
    obs.add_argument(
        "--tenant", dest="filter_tenant", default=None,
        help="tail/export only: keep spans attributed to this tenant "
        "(resolved by walking parent links to the gateway.request span)",
    )
    obs.add_argument(
        "--trace-id", type=lambda s: int(s, 0), default=None,
        help="tail/export only: keep spans of one trace (decimal or 0x hex)",
    )
    obs.add_argument(
        "--tenants", default="alpha,beta",
        help="slo only: comma-separated tenant names for the loopback load",
    )
    obs.add_argument("--connections", type=int, default=2,
                     help="slo only: connections per tenant")
    obs.add_argument("--requests", type=int, default=25,
                     help="slo only: requests per connection")
    obs.add_argument("--quota", type=int, default=None,
                     help="slo only: per-tenant request quota (burns budget)")
    obs.add_argument(
        "--json", action="store_true",
        help="slo only: print the wire SLO snapshot as JSON",
    )
    obs.set_defaults(func=_cmd_obs)

    recover = sub.add_parser(
        "recover",
        help="durability drills: scrub-and-repair, crash replay, rebuild",
    )
    recover.add_argument(
        "action", choices=["scrub", "replay", "rebuild", "report"],
        help="scrub = corrupt pages then repair from replicas; replay = "
        "crash at WAL boundaries and verify byte-identical recovery; "
        "rebuild = lose a device and rebuild it from replicas; report = "
        "all three plus the durability counters",
    )
    _add_filesystem_arguments(recover)
    recover.add_argument(
        "--method", default="fx",
        choices=[n for n in method_names() if n != "replicated"],
        help="base distribution method under the replica chain",
    )
    recover.add_argument("--records", type=int, default=64,
                         help="seeded records inserted before the drill")
    recover.add_argument("--seed", type=int, default=0,
                         help="seed for records, faults, and workloads")
    recover.add_argument("--offset", type=int, default=1,
                         help="chained-replica device offset")
    recover.add_argument(
        "--corruption-rate", type=float, default=0.05,
        help="scrub/report: per-page corruption probability",
    )
    recover.add_argument(
        "--crash-after", type=int, default=None,
        help="replay: crash at this WAL record boundary "
        "(default: halfway through the workload)",
    )
    recover.add_argument(
        "--all-offsets", action="store_true",
        help="replay: sweep every boundary 0..N instead of one",
    )
    recover.add_argument(
        "--torn-tail", action="store_true",
        help="replay: leave half a frame behind at the crash point",
    )
    recover.add_argument("--lose", type=int, default=0,
                         help="rebuild: device to wipe and reconstruct")
    recover.add_argument(
        "--queries", type=int, default=20,
        help="rebuild: workload size for the post-rebuild optimality "
        "check (0 skips it)",
    )
    recover.add_argument("--p", type=float, default=0.5,
                         help="rebuild: per-field specification probability")
    recover.add_argument(
        "--deterministic-clock", action="store_true",
        help="inject a manual clock so span timings are reproducible",
    )
    recover.add_argument("--json", action="store_true",
                         help="emit machine-readable JSON instead of tables")
    recover.set_defaults(func=_cmd_recover)

    serve = sub.add_parser(
        "serve",
        parents=[_serving_parser()],
        help="drive the concurrent serving tier with a closed-loop load",
    )
    serve.add_argument("--records", type=int, default=64,
                       help="seeded records loaded before the run")
    serve.add_argument("--clients", type=int, default=8,
                       help="closed-loop client threads")
    serve.add_argument(
        "--hot-fraction", type=float, default=0.5, dest="hot_fraction",
        help="fraction of queries drawn from a small shared hot pool",
    )
    serve.add_argument(
        "--allow-degraded", action="store_true", dest="allow_degraded",
        help="exit 0 even when requests were shed or timed out "
             "(default: degraded runs fail with a structured error)",
    )
    serve.set_defaults(func=_cmd_serve, requests=50, write_every=0)

    gateway = sub.add_parser(
        "gateway",
        parents=[_serving_parser()],
        help="serve multiple tenants over TCP and drive a loopback load",
    )
    gateway.add_argument(
        "--tenants", default="alpha,beta",
        help="comma-separated tenant namespace names",
    )
    gateway.add_argument("--host", default="127.0.0.1",
                         help="bind address")
    gateway.add_argument("--port", type=int, default=0,
                         help="bind port (0 picks a free one)")
    gateway.add_argument(
        "--listen", action="store_true",
        help="serve until interrupted instead of driving a loopback load",
    )
    gateway.add_argument(
        "--connections", type=int, default=4,
        help="loopback connections per tenant",
    )
    gateway.add_argument(
        "--batch-every", type=int, default=0, dest="batch_every",
        help="every k-th op is a multi-query batch frame (0 = never)",
    )
    gateway.add_argument(
        "--preload", type=int, default=16,
        help="records inserted per tenant before the timed run",
    )
    gateway.add_argument(
        "--quota", type=int, default=None,
        help="per-tenant lifetime request quota (default: unlimited)",
    )
    gateway.add_argument(
        "--rate", type=float, default=None,
        help="per-tenant token-bucket refill rate, requests/s",
    )
    gateway.add_argument("--burst", type=int, default=8,
                         help="token-bucket burst size")
    gateway.add_argument(
        "--max-inflight", type=int, default=None, dest="max_inflight",
        help="per-tenant concurrent-request cap",
    )
    gateway.add_argument(
        "--max-connections", type=int, default=32, dest="max_connections",
        help="total connections accepted before busy-rejecting",
    )
    gateway.add_argument(
        "--export-jsonl", default=None, dest="export_jsonl",
        help="after the load, write the telemetry stream (propagated "
        "traces included) as canonical JSONL to this path",
    )
    gateway.set_defaults(func=_cmd_gateway, requests=25, write_every=5)

    chaos = sub.add_parser(
        "chaos",
        help="inject deterministic wire faults + a crash-restart and "
        "prove zero stale reads / exactly-once acked writes",
    )
    _add_filesystem_arguments(chaos)
    chaos.add_argument(
        "--method", default="fx", choices=list(method_names()),
        help="distribution method for every tenant's file",
    )
    chaos.add_argument(
        "--tenants", default="alpha,beta",
        help="comma-separated tenant namespace names",
    )
    chaos.add_argument("--connections", type=int, default=2,
                       help="chaos clients (fault endpoints) per tenant")
    chaos.add_argument("--requests", type=int, default=16,
                       help="ops issued by each client")
    chaos.add_argument("--seed", type=int, default=0,
                       help="seed for op logs AND the fault schedule")
    chaos.add_argument("--p", type=float, default=0.5,
                       help="per-field specification probability")
    chaos.add_argument(
        "--write-every", type=int, default=3, dest="write_every",
        help="every k-th op of a client is an insert (0 = read-only)",
    )
    chaos.add_argument(
        "--batch-every", type=int, default=0, dest="batch_every",
        help="every k-th op is a multi-query batch frame (0 = never)",
    )
    chaos.add_argument(
        "--preload", type=int, default=4,
        help="records written per tenant before chaos starts",
    )
    chaos.add_argument(
        "--fault-rate", type=float, default=0.05, dest="fault_rate",
        help="per-exchange rate of EACH fault kind (reset/tear/dup/delay)",
    )
    chaos.add_argument(
        "--refuse-rate", type=float, default=None, dest="refuse_rate",
        help="per-connection refusal rate (default: --fault-rate)",
    )
    chaos.add_argument(
        "--delay-ms", type=float, default=5.0, dest="delay_ms",
        help="how long a delay fault holds a response back",
    )
    chaos.add_argument(
        "--crash-at", type=float, default=0.5, dest="crash_at",
        help="crash-restart the gateway after this fraction of each "
        "client's ops",
    )
    chaos.add_argument(
        "--no-crash", action="store_true", dest="no_crash",
        help="skip the crash-restart (wire faults only)",
    )
    chaos.add_argument(
        "--torn-tail", action="store_true", dest="torn_tail",
        help="shear the final WAL frame in half at the crash",
    )
    chaos.add_argument("--timeout", type=float, default=10.0,
                       help="socket deadline of each client attempt (s)")
    chaos.add_argument(
        "--max-attempts", type=int, default=6, dest="max_attempts",
        help="retry budget per logical request",
    )
    chaos.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON instead of tables")
    chaos.set_defaults(func=_cmd_chaos)

    adapt = sub.add_parser(
        "adapt",
        help="workload-adaptive declustering: score the deployed "
        "assignment against an observed mix, search for a better one, "
        "or hot-swap onto it crash-safely",
    )
    adapt.add_argument(
        "action", choices=["score", "plan", "apply"],
        help="score = mix-weighted load factor of the deployed "
        "assignment and the gap to the lower bound; plan = search for a "
        "better assignment (rc 1 if none); apply = plan, migrate a "
        "durable file through the WAL-audited path, and re-verify "
        "optimality from telemetry (rc 1 unless verified)",
    )
    _add_filesystem_arguments(adapt)
    adapt.add_argument(
        "--profile", default=None,
        help="observed mix: a query-mix profile JSON or an 'obs export' "
        "JSONL file (offline feed — no new wire op)",
    )
    adapt.add_argument(
        "--tenant", default=None,
        help="profile only: adapt to this tenant's mix (default: all "
        "tenants pooled)",
    )
    adapt.add_argument(
        "--mix", default=None,
        help="observed mix inline: pattern=count pairs, e.g. "
        "'***1=50,**11=20' ('*' = unspecified field)",
    )
    adapt.add_argument(
        "--transforms", default=None,
        help="deployed assignment as comma-separated family names "
        "(default: the uniform-optimal assignment found by search)",
    )
    adapt.add_argument("--seed", type=int, default=0,
                       help="seed for search restarts, linear draws and "
                       "the apply workload")
    adapt.add_argument("--restarts", type=int, default=4,
                       help="hill-climb restarts (many small fields)")
    adapt.add_argument(
        "--linear-draws", type=int, default=0, dest="linear_draws",
        help="also try this many random injective GF(2) matrix "
        "assignments",
    )
    adapt.add_argument("--parallel", type=int, default=None,
                       help="threads for the baseline search (0 = one "
                       "per CPU)")
    adapt.add_argument("--records", type=int, default=128,
                       help="apply only: records inserted before the swap")
    adapt.add_argument("--force", action="store_true",
                       help="apply only: swap even without improvement")
    adapt.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON")
    adapt.set_defaults(func=_cmd_adapt)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        parser.exit(2, f"error: {error}\n")
        return 2  # pragma: no cover - parser.exit raises
