"""Query-mix profiler: per-tenant pattern frequencies from exported spans.

Workload-adaptive declustering (DESIGN §4l) needs the *observed*
query-pattern distribution — how often each partial-match pattern (which
fields are specified) is actually asked, per tenant — so candidate
transforms can be scored against the real mix rather than the uniform
assumption the closed-form analysis uses.  This module derives exactly
that from the telemetry JSONL stream, counting each query once, where the
service answered it:

* every ``service.request`` span contributes its ``query``,
* every ``service.batch_request`` span contributes each pattern of its
  space-separated ``patterns`` attribute,
* a ``query.execute`` span (its ``query``) or ``query.batch`` span (each
  entry of its ``per_query`` attribute) contributes only when no
  ``service.*`` span is among its ancestors — the in-process replays,
  such as ``obs export``, that run no service.  Under a service these
  spans mark cache misses only, and the service span already counted
  the query, and
* each contribution is attributed to a tenant by walking the span's
  parent links (within its trace) up to the nearest ancestor carrying a
  ``tenant`` attribute — the ``gateway.request`` span stamped by the
  server when it resumed the caller's trace context.  Spans with no
  tenanted ancestor (in-process runs) land under the empty tenant ``""``.

Patterns are canonicalised as indicator strings over the field order —
``"1*1"`` means fields 0 and 2 specified, field 1 unspecified — parsed
from the query ``describe()`` form (``"<1, *, 3>"``) the spans carry.
Profiles hold only integer counts (no timestamps), so two identical runs
serialise byte-identically regardless of clock behaviour; canonical JSON
uses sorted keys and compact separators, matching the telemetry export
conventions.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from itertools import islice

from repro.envelope import SCHEMA_VERSION, check_version, versioned
from repro.errors import ProtocolError, ReproError

__all__ = [
    "pattern_of",
    "pattern_of_query",
    "span_index",
    "resolve_tenant",
    "TenantProfile",
    "QueryMixProfile",
]


def _check_count(value: object, what: str) -> int:
    """Validate a profile count: a non-negative integer (bools rejected)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ReproError(f"{what} must be an integer, got {value!r}")
    if value < 0:
        raise ReproError(f"{what} must be non-negative, got {value}")
    return value


def _parse_json(text: str | bytes, where: str) -> object:
    """One JSON document; malformed or over-deep text raises
    :class:`~repro.errors.ProtocolError` naming *where*."""
    try:
        return json.loads(text)
    except ValueError as error:
        raise ProtocolError(f"{where} is not valid JSON: {error}") from None
    except RecursionError:
        raise ProtocolError(
            f"{where} nests deeper than the recursion limit"
        ) from None


def _object(value: object, what: str) -> Mapping:
    if not isinstance(value, dict):
        raise ProtocolError(
            f"{what} must be an object, got {type(value).__name__}"
        )
    return value


def pattern_of(described: str) -> str:
    """Canonical pattern of a ``describe()`` string.

    >>> pattern_of("<1, *, 3>")
    '1*1'
    """
    inner = described.strip()
    if inner.startswith("<") and inner.endswith(">"):
        inner = inner[1:-1]
    if not inner:
        return ""
    return "".join(
        "*" if cell.strip() == "*" else "1" for cell in inner.split(",")
    )


def pattern_of_query(query) -> str:
    """Canonical pattern of a live :class:`PartialMatchQuery`."""
    return "".join("*" if value is None else "1" for value in query.values)


def span_index(records: Iterable[Mapping]) -> dict[tuple[int, int], Mapping]:
    """Index span records by ``(trace, id)`` for parent walks."""
    return {
        (record["trace"], record["id"]): record
        for record in records
        if record.get("type") == "span"
    }


def _walkable(span: Mapping) -> bool:
    """Does *span* carry what a parent walk over :func:`span_index` reads?"""
    parent = span.get("parent")
    return (
        isinstance(span.get("trace"), int)
        and isinstance(span.get("id"), int)
        and (parent is None or isinstance(parent, int))
        and isinstance(span.get("attrs", {}), dict)
    )


def _lineage(
    record: Mapping, index: Mapping[tuple[int, int], Mapping]
) -> Iterator[Mapping]:
    """*record*, then its ancestors nearest first, within its trace.

    A missing parent (evicted from the ring, or remote to the export) or
    a malformed cycle ends the walk.  The cycle guard keys on
    ``(trace, id)``, not the span id alone: merged multi-run exports
    legitimately reuse span ids across traces, and an id-only guard would
    mistake such a reuse for a cycle and end the walk early.
    """
    seen: set[tuple[object, object]] = set()
    current: Mapping | None = record
    while current is not None:
        key = (current.get("trace"), current.get("id"))
        if key in seen:
            return
        seen.add(key)
        yield current
        parent = current.get("parent")
        if parent is None:
            return
        current = index.get((current.get("trace"), parent))


def resolve_tenant(
    record: Mapping,
    index: Mapping[tuple[int, int], Mapping],
    default: str = "",
) -> str:
    """The ``tenant`` attribute of the nearest ancestor span (or *default*).

    The walk stays inside each record's trace; a missing parent or a
    malformed cycle ends it at *default*.
    """
    for span in _lineage(record, index):
        tenant = span.get("attrs", {}).get("tenant")
        if tenant is not None:
            return str(tenant)
    return default


def _under_service(
    record: Mapping, index: Mapping[tuple[int, int], Mapping]
) -> bool:
    """Is a ``service.*`` span among *record*'s ancestors?"""
    return any(
        str(span.get("name")).startswith("service.")
        for span in islice(_lineage(record, index), 1, None)
    )


def _record_patterns(
    record: Mapping, index: Mapping[tuple[int, int], Mapping]
) -> list[str]:
    """The patterns of the queries *record* counts (see the module
    docstring for which span counts a query)."""
    name = record.get("name")
    attrs = record.get("attrs", {})
    if name == "service.batch_request":
        patterns = attrs.get("patterns")
        if not isinstance(patterns, str):
            return []
        return [token for token in patterns.split() if not token.strip("1*")]
    if name == "service.request" or (
        name == "query.execute" and not _under_service(record, index)
    ):
        described = [attrs.get("query")]
    elif name == "query.batch" and not _under_service(record, index):
        per_query = attrs.get("per_query")
        if not isinstance(per_query, list):
            return []
        described = [
            entry.get("query") if isinstance(entry, dict) else None
            for entry in per_query
        ]
    else:
        return []
    return [pattern_of(text) for text in described if isinstance(text, str)]


@dataclass
class TenantProfile:
    """One tenant's observed pattern-frequency histogram."""

    tenant: str
    patterns: dict[str, int] = field(default_factory=dict)

    @property
    def queries(self) -> int:
        return sum(self.patterns.values())

    def record(self, pattern: str, count: int = 1) -> None:
        self.patterns[pattern] = self.patterns.get(pattern, 0) + count

    def frequencies(self) -> dict[str, float]:
        """Pattern → relative frequency (empty profile → empty dict)."""
        total = self.queries
        if total == 0:
            return {}
        return {
            pattern: self.patterns[pattern] / total
            for pattern in sorted(self.patterns)
        }

    def to_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "queries": self.queries,
            "patterns": {k: self.patterns[k] for k in sorted(self.patterns)},
        }


@dataclass
class QueryMixProfile:
    """Per-tenant pattern frequencies aggregated from exported spans."""

    tenants: dict[str, TenantProfile] = field(default_factory=dict)
    #: Number of queries counted (see the module docstring).
    observed: int = 0

    def tenant(self, name: str) -> TenantProfile:
        found = self.tenants.get(name)
        if found is None:
            found = self.tenants[name] = TenantProfile(name)
        return found

    @classmethod
    def from_records(cls, records: Iterable[Mapping]) -> "QueryMixProfile":
        """Aggregate exported spans into a profile, each query counted
        once where the service answered it."""
        records = [r for r in records if r.get("type") == "span"]
        index = span_index(records)
        profile = cls()
        for record in records:
            patterns = _record_patterns(record, index)
            if not patterns:
                continue
            tenant = profile.tenant(resolve_tenant(record, index))
            for pattern in patterns:
                tenant.record(pattern)
            profile.observed += len(patterns)
        return profile

    # ------------------------------------------------------------------
    # Canonical serialisation (byte-identical run over run)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return versioned(
            {
                "type": "profile",
                "observed": self.observed,
                "tenants": {
                    name: self.tenants[name].to_dict()
                    for name in sorted(self.tenants)
                },
            }
        )

    def to_json(self) -> str:
        """One canonical JSON document: sorted keys, compact separators."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Mapping) -> "QueryMixProfile":
        """Parse and *validate* a profile document.

        ``tenants``, each tenant entry and its ``patterns`` must be
        objects, counts must be non-negative integers and the top-level
        ``observed`` total must equal the sum of all tenant pattern
        counts (``from_records`` maintains exactly that invariant) —
        anything else would silently corrupt :meth:`frequencies`, so it
        raises :class:`~repro.errors.ReproError` instead.
        """
        check_version(data, where="query-mix profile")
        if data.get("type") != "profile":
            raise ReproError(
                f"not a query-mix profile record: {data.get('type')!r}"
            )
        observed = _check_count(data.get("observed", 0), "observed total")
        profile = cls(observed=observed)
        recorded = 0
        tenants = _object(data.get("tenants", {}), "profile tenants")
        for name, entry in tenants.items():
            entry = _object(entry, f"tenant {name!r}")
            patterns = _object(
                entry.get("patterns", {}), f"tenant {name!r} patterns"
            )
            tenant = profile.tenant(name)
            for pattern, count in patterns.items():
                if not isinstance(pattern, str) or not all(
                    cell in "1*" for cell in pattern
                ):
                    raise ReproError(
                        f"tenant {name!r}: malformed pattern {pattern!r} "
                        "(expected an indicator string over '1'/'*')"
                    )
                count = _check_count(
                    count, f"tenant {name!r} pattern {pattern!r} count"
                )
                tenant.record(pattern, count)
                recorded += count
        if recorded != observed:
            raise ReproError(
                f"inconsistent query-mix profile: observed total "
                f"{observed} != {recorded} recorded pattern counts"
            )
        return profile

    @classmethod
    def from_json(cls, text: str) -> "QueryMixProfile":
        return cls.from_dict(_parse_json(text, "query-mix profile"))
