"""Verify the paper's optimality bound from observed executions.

``core.optimality`` answers "is this method strict optimal?" from closed
form; :class:`ObservedOptimalityChecker` answers the same question the way
a production evaluation would — replay a workload trace through the real
executor, then read *only the telemetry* (the ``query.execute`` spans'
``buckets_per_device`` attributes) to find the per-device qualified-bucket
maxima, the paper's ``max_j |R(q) on device j|``.  Each observation is then
cross-checked against the closed-form :meth:`response_histogram`, so a
disagreement pinpoints an instrumentation bug and a violation pinpoints a
genuinely non-optimal query.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AnalysisError
from repro.util.numbers import ceil_div

__all__ = [
    "ObservedQuery",
    "ObservedCheckReport",
    "TraceAuditObservation",
    "TraceAuditReport",
    "ObservedOptimalityChecker",
]


@dataclass(frozen=True)
class ObservedQuery:
    """One query's telemetry-side observation next to its closed form."""

    query: str
    qualified: int
    bound: int
    observed_per_device: tuple[int, ...]
    closed_form_per_device: tuple[int, ...]

    @property
    def observed_max(self) -> int:
        return max(self.observed_per_device, default=0)

    @property
    def closed_form_max(self) -> int:
        return max(self.closed_form_per_device, default=0)

    @property
    def strict_optimal(self) -> bool:
        return self.observed_max <= self.bound

    @property
    def agrees(self) -> bool:
        """Telemetry and closed form report identical device loads."""
        return sorted(self.observed_per_device) == sorted(
            self.closed_form_per_device
        )


@dataclass
class ObservedCheckReport:
    """Outcome of one trace replay, built from telemetry alone."""

    method_name: str
    observations: list[ObservedQuery] = field(default_factory=list)

    @property
    def queries(self) -> int:
        return len(self.observations)

    @property
    def violations(self) -> list[ObservedQuery]:
        """Queries whose observed maximum exceeded ``ceil(|R(q)|/M)``."""
        return [o for o in self.observations if not o.strict_optimal]

    @property
    def disagreements(self) -> list[ObservedQuery]:
        """Observations the closed-form engine does not confirm."""
        return [o for o in self.observations if not o.agrees]

    @property
    def all_strict_optimal(self) -> bool:
        return not self.violations

    @property
    def consistent(self) -> bool:
        return not self.disagreements

    def summary(self) -> str:
        return (
            f"{self.method_name}: {self.queries} queries replayed, "
            f"{self.queries - len(self.violations)} strict optimal from "
            f"telemetry, {len(self.disagreements)} closed-form disagreements"
        )

    def to_dict(self) -> dict:
        return {
            "method": self.method_name,
            "queries": self.queries,
            "violations": [
                {
                    "query": o.query,
                    "observed_max": o.observed_max,
                    "bound": o.bound,
                }
                for o in self.violations
            ],
            "disagreements": [o.query for o in self.disagreements],
            "all_strict_optimal": self.all_strict_optimal,
            "consistent": self.consistent,
        }


@dataclass(frozen=True)
class TraceAuditObservation:
    """One query observation from a propagated (possibly remote) trace."""

    tenant: str
    trace: int
    span: int
    query: str
    qualified: int
    observed_per_device: tuple[int, ...]

    @property
    def devices(self) -> int:
        return len(self.observed_per_device)

    @property
    def bound(self) -> int:
        return ceil_div(self.qualified, max(1, self.devices))

    @property
    def observed_max(self) -> int:
        return max(self.observed_per_device, default=0)

    @property
    def strict_optimal(self) -> bool:
        return self.observed_max <= self.bound


@dataclass
class TraceAuditReport:
    """Bound audit of an exported trace, attributed per tenant.

    Unlike :class:`ObservedCheckReport` (which replays a known query list
    through a known method), this report is built from records alone — it
    audits whatever ``query.execute`` spans and ``query.batch``
    ``per_query`` entries the export carries, resolving each span's owner
    by walking its trace to the tenanted ``gateway.request`` ancestor.
    Violations therefore name the *tenant* responsible, not a bare span
    id; spans with no tenanted ancestor land under ``""``.
    """

    observations: list[TraceAuditObservation] = field(default_factory=list)

    @property
    def queries(self) -> int:
        return len(self.observations)

    @property
    def violations(self) -> list[TraceAuditObservation]:
        return [o for o in self.observations if not o.strict_optimal]

    @property
    def all_strict_optimal(self) -> bool:
        return not self.violations

    @property
    def tenants(self) -> list[str]:
        return sorted({o.tenant for o in self.observations})

    def violations_by_tenant(self) -> dict[str, list[TraceAuditObservation]]:
        grouped: dict[str, list[TraceAuditObservation]] = {}
        for observation in self.violations:
            grouped.setdefault(observation.tenant, []).append(observation)
        return {tenant: grouped[tenant] for tenant in sorted(grouped)}

    def summary(self) -> str:
        return (
            f"trace audit: {self.queries} query observations across "
            f"{len(self.tenants)} tenants, {len(self.violations)} bound "
            f"violations"
        )

    def to_dict(self) -> dict:
        return {
            "queries": self.queries,
            "tenants": self.tenants,
            "violations": [
                {
                    "tenant": o.tenant,
                    "query": o.query,
                    "observed_max": o.observed_max,
                    "bound": o.bound,
                    "trace": o.trace,
                }
                for o in self.violations
            ],
            "all_strict_optimal": self.all_strict_optimal,
        }


class ObservedOptimalityChecker:
    """Replays queries and judges optimality from the emitted spans.

    >>> from repro.core.fx import FXDistribution
    >>> from repro.hashing.fields import FileSystem
    >>> from repro.query.partial_match import PartialMatchQuery
    >>> fs = FileSystem.of(2, 2, 2, m=8)
    >>> checker = ObservedOptimalityChecker(FXDistribution(fs))
    >>> report = checker.replay([PartialMatchQuery.from_dict(fs, {0: 1})])
    >>> report.all_strict_optimal and report.consistent
    True
    """

    def __init__(self, method):
        self.method = method

    def replay(self, queries, batched: bool = False) -> ObservedCheckReport:
        """Execute *queries* against an (empty) partitioned file and check.

        Record contents are irrelevant to the bound — qualified bucket
        counts come from inverse mapping, not from stored data — so the
        replay file needs no inserts.

        With ``batched=True`` the whole trace runs through the array
        engine as one batch and the audit reads the ``query.batch`` span's
        ``per_query`` attribute instead of ``query.execute`` spans — so
        the bound is verified against what the *batched* read path
        actually did, not just the serial one.
        """
        from repro.obs import telemetry
        from repro.storage.parallel_file import PartitionedFile

        # The executor and the engine record through the global tracer,
        # so the global telemetry is the only place their spans land.
        current = telemetry()
        if not current.enabled:
            raise AnalysisError(
                "telemetry is disabled; the observed checker reads spans "
                "(configure(enabled=True) first)"
            )
        queries = list(queries)
        events = current.events
        if batched:
            from repro.engine.batch import BatchEngine

            appended_before = events.appended
            BatchEngine(PartitionedFile(self.method)).execute(queries)
            per_query = self._batch_observations(
                _replayed(events, appended_before), len(queries)
            )
        else:
            from repro.storage.executor import QueryExecutor

            # Each query's span is read as soon as it closes, so how many
            # queries a replay can check does not depend on the budget.
            executor = QueryExecutor(PartitionedFile(self.method))
            per_query = []
            for query in queries:
                appended_before = events.appended
                executor.execute(query)
                observed_spans = [
                    record
                    for record in _replayed(events, appended_before)
                    if record["type"] == "span"
                    and record["name"] == "query.execute"
                ]
                if len(observed_spans) != 1:
                    raise AnalysisError(
                        "expected one query.execute span per query, "
                        f"telemetry retained {len(observed_spans)}"
                    )
                per_query.append(observed_spans[0]["attrs"])

        m = self.method.filesystem.m
        report = ObservedCheckReport(
            method_name=self.method.name or type(self.method).__name__
        )
        for query, attrs in zip(queries, per_query):
            observed = tuple(attrs["buckets_per_device"])
            qualified = attrs["qualified"]
            report.observations.append(
                ObservedQuery(
                    query=attrs["query"],
                    qualified=qualified,
                    bound=ceil_div(qualified, m),
                    observed_per_device=observed,
                    closed_form_per_device=tuple(
                        self.method.response_histogram(query)
                    ),
                )
            )
        return report

    @staticmethod
    def audit_trace(records) -> TraceAuditReport:
        """Audit an exported record stream, attributing per tenant.

        Every ``query.execute`` span and every ``query.batch``
        ``per_query`` entry is checked against ``ceil(|R(q)|/M)`` (``M``
        read from the span's own ``buckets_per_device`` width, so no
        method object is needed).  A span whose propagated trace leads to
        a tenanted ``gateway.request`` ancestor — including across the
        remote hop the server marked when it resumed the wire context —
        is attributed to that tenant; untenanted spans report as ``""``.
        """
        from repro.obs.profile import _walkable, resolve_tenant, span_index

        spans = [r for r in records if r.get("type") == "span"]
        for position, record in enumerate(spans):
            if not _walkable(record):
                raise AnalysisError(
                    f"span record {position}: needs integer trace, id and "
                    "parent (or null) and an attrs object"
                )
        index = span_index(spans)
        report = TraceAuditReport()

        def observe(record, attrs) -> None:
            observed = attrs.get("buckets_per_device")
            qualified = attrs.get("qualified")
            described = attrs.get("query")
            if observed is None or qualified is None or described is None:
                return
            if not (
                _is_int(qualified)
                and isinstance(observed, list)
                and all(_is_int(count) for count in observed)
            ):
                raise AnalysisError(
                    f"span {record['id']}: qualified must be an integer "
                    "and buckets_per_device a list of integers"
                )
            report.observations.append(
                TraceAuditObservation(
                    tenant=resolve_tenant(record, index),
                    trace=record.get("trace", 0),
                    span=record["id"],
                    query=str(described),
                    qualified=qualified,
                    observed_per_device=tuple(observed),
                )
            )

        for record in spans:
            name = record.get("name")
            if name == "query.execute":
                observe(record, record.get("attrs", {}))
            elif name == "query.batch":
                for entry in record.get("attrs", {}).get("per_query", []):
                    if isinstance(entry, dict):
                        observe(record, entry)
        return report

    @staticmethod
    def _batch_observations(new_records, expected: int) -> list[dict]:
        """Per-query attrs from the replay's single ``query.batch`` span."""
        batch_spans = [
            record
            for record in new_records
            if record["type"] == "span" and record["name"] == "query.batch"
        ]
        if len(batch_spans) != 1:
            raise AnalysisError(
                f"expected one query.batch span, telemetry retained "
                f"{len(batch_spans)}"
            )
        per_query = batch_spans[0]["attrs"]["per_query"]
        if len(per_query) != expected:
            raise AnalysisError(
                f"query.batch span reports {len(per_query)} queries, "
                f"{expected} were replayed"
            )
        return per_query


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _replayed(events, appended_before: int) -> list[dict]:
    """The records appended since *appended_before*, rendered.

    Eviction is oldest first, so they all survive unless more records
    were evicted than preceded them.
    """
    lost = events.evicted - appended_before
    if lost > 0:
        raise AnalysisError(
            f"the event log's {events.budget_bytes}-byte budget evicted "
            f"{lost} of the replay's own records; raise "
            "telemetry().events.budget_bytes"
        )
    return events.tail(events.appended - appended_before)
