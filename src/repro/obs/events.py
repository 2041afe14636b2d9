"""Structured event log: every finished span and metrics sample, in order.

The :class:`EventLog` is an append-only ring bounded by an estimated byte
budget.  It keeps each record as appended — a finished
:class:`~repro.obs.spans.Span` stays the compact object it is, with any
deferred attribute values unrendered — and renders it to one JSON object
only when it is read (:meth:`EventLog.records`, :meth:`EventLog.tail`).
What a retained record costs the budget is estimated here, and only here
(:func:`_record_bytes`).  :meth:`EventLog.to_jsonl` serialises the log to
JSON Lines with sorted keys and compact separators, so two runs that record
the same telemetry (e.g. under a :class:`~repro.obs.clock.ManualClock`)
export byte-identical files.

JSONL schema (documented in ``docs/usage.md`` and enforced by
:func:`validate_record` / the ``obs export --validate`` CLI path):

``{"v": 1, "type": "span", "id": int, "trace": int, "parent": int | null,
"name": str, "start_ms": float, "end_ms": float, "duration_ms": float,
"attrs": {str: scalar}, "events": [{"name": str, "at_ms": float,
"attrs": {...}}]}`` — plus an optional ``"remote": true`` marker on spans
whose parent context arrived over the wire (``trace`` is the 64-bit trace
id shared by a whole cross-process request tree).

``{"v": 1, "type": "metrics", "counters": {...}, "gauges": {...},
"histograms": {name: {count, sum, min, max, p50, p95, p99}},
"perf": {name: {hits, misses, events, seconds}}}``

The leading ``"v"`` is the process-wide envelope version from
:mod:`repro.envelope` — the same marker the gateway wire protocol and the
``--json`` result serialisations carry.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from collections.abc import Iterable
from itertools import islice
from pathlib import Path
from sys import getsizeof

from repro.envelope import SCHEMA_VERSION
from repro.errors import ReproError

__all__ = [
    "EventLog",
    "jsonl_line",
    "validate_record",
    "validate_jsonl",
    "WELL_KNOWN_SPAN_EVENTS",
]

#: Default ring budget, in estimated bytes: about 11,000 served-request
#: spans, bounding the telemetry a long-lived process retains.
DEFAULT_BUDGET_BYTES = 8 << 20

#: What one retained record costs the ring beyond the record itself: its
#: slot in the record deque, its slot in the size deque and the size.
_SLOT_BYTES = 44
#: What a finished span holds besides itself, its attributes and events:
#: the empty events list, its two floats and three ids.
_SPAN_FIELD_BYTES = 196
#: One span event: its dict, its attrs dict and a few scalar values.
_EVENT_BYTES = 480

#: The span-event vocabulary the instrumented subsystems emit.  Names are
#: not enforced by the schema (spans may carry ad-hoc events), but dashboards
#: and tests key off these: the degraded runtime emits ``retry`` /
#: ``timeout`` / ``failover`` / ``data_loss`` / ``degraded``, and the
#: durability layer emits ``corruption.detected`` / ``page.repaired`` /
#: ``repair.failed`` / ``wal.torn_tail`` / ``device.rebuilt``.
WELL_KNOWN_SPAN_EVENTS = frozenset(
    {
        "retry",
        "timeout",
        "failover",
        "data_loss",
        "degraded",
        "corruption.detected",
        "page.repaired",
        "repair.failed",
        "wal.torn_tail",
        "device.rebuilt",
    }
)


class _Deferred:
    """A span attribute value kept as the *parts* it is rendered from.

    ``render(*parts)`` builds the exported JSON value when the span is
    read; until then the span retains only the parts, which is what its
    ``__sizeof__`` reports to :func:`_record_bytes`.
    """

    __slots__ = ("_render", "parts")

    def __init__(self, render, *parts):
        self._render = render
        self.parts = parts

    def render(self) -> object:
        return self._render(*self.parts)

    def __sizeof__(self) -> int:
        """The value and its parts; a list part counts its items as
        copies of its first (the lists deferred here hold rows of one
        shape)."""
        size = object.__sizeof__(self) + getsizeof(self.parts)
        for part in self.parts:
            size += getsizeof(part)
            if isinstance(part, list) and part:
                size += len(part) * getsizeof(part[0])
        return size


def _record_bytes(record) -> int:
    """Estimated bytes *record* holds once appended, in O(its fields).

    A plain dict counts itself and its top-level values; a finished span
    counts itself, its attribute dict and values and a fixed cost per
    event.  Shared objects (interned strings, small ints) are counted as
    if owned, so the estimate errs high.
    """
    size = getsizeof(record) + _SLOT_BYTES
    if isinstance(record, dict):
        return size + sum(map(getsizeof, record.values()))
    attrs = record.attrs
    return (
        size
        + _SPAN_FIELD_BYTES
        + getsizeof(attrs)
        + sum(map(getsizeof, attrs.values()))
        + len(record.events) * _EVENT_BYTES
    )


def _render(record) -> dict:
    """A retained record as its JSONL-schema dict."""
    return record if isinstance(record, dict) else record.to_record()


class EventLog:
    """Thread-safe, append-only log of telemetry records, bounded in bytes.

    A record is a plain dict or a finished span; spans are rendered only
    when read.  Each append costs one :func:`_record_bytes` estimate.
    Once the retained estimate passes *budget_bytes*, the oldest records
    are evicted, and counted in :attr:`evicted`.  *budget_bytes* may be
    raised at any time, up to ``math.inf`` for a one-shot run that
    exports everything it records.
    """

    def __init__(self, budget_bytes: int = DEFAULT_BUDGET_BYTES):
        if budget_bytes <= 0:
            raise ValueError(
                f"budget_bytes must be positive, got {budget_bytes}"
            )
        self.budget_bytes = budget_bytes
        self._lock = threading.Lock()
        self._records: deque = deque()
        self._sizes: deque[int] = deque()
        #: Estimated bytes the retained records hold; never above the budget.
        self.estimated_bytes = 0
        #: Total appends ever, including records the ring has evicted.
        self.appended = 0
        #: Records evicted to stay within the budget, oldest first.
        self.evicted = 0

    def append(self, record) -> int:
        """Append *record*; returns how many old records it evicted."""
        size = _record_bytes(record)
        evicted = 0
        with self._lock:
            self._records.append(record)
            self._sizes.append(size)
            self.appended += 1
            held = self.estimated_bytes + size
            while held > self.budget_bytes:
                self._records.popleft()
                held -= self._sizes.popleft()
                evicted += 1
            self.estimated_bytes = held
            self.evicted += evicted
        return evicted

    def records(self) -> list[dict]:
        """The retained records, oldest first, rendered."""
        with self._lock:
            retained = list(self._records)
        return [_render(record) for record in retained]

    def tail(self, count: int) -> list[dict]:
        """The most recent *count* records, oldest of them first, rendered."""
        if count <= 0:
            return []
        with self._lock:
            retained = list(islice(reversed(self._records), count))
        retained.reverse()
        return [_render(record) for record in retained]

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self._sizes.clear()
            self.estimated_bytes = 0
            self.appended = 0
            self.evicted = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_jsonl(self, extra: Iterable[dict] = ()) -> str:
        """The whole log (plus *extra* records) as canonical JSON Lines."""
        lines = [jsonl_line(record) for record in self.records()]
        lines.extend(jsonl_line(record) for record in extra)
        return "".join(lines)

    def write_jsonl(self, path: str | Path, extra: Iterable[dict] = ()) -> int:
        """Write the log to *path*; returns the number of lines written."""
        text = self.to_jsonl(extra)
        Path(path).write_text(text, encoding="utf-8")
        return text.count("\n")


def jsonl_line(record: dict) -> str:
    """One canonical JSONL line: sorted keys, compact separators."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


# ----------------------------------------------------------------------
# Schema validation (used by ``obs export --validate`` and CI obs-smoke)
# ----------------------------------------------------------------------
_SPAN_REQUIRED = {
    "v": int,
    "type": str,
    "id": int,
    "trace": int,
    "name": str,
    "start_ms": (int, float),
    "end_ms": (int, float),
    "duration_ms": (int, float),
    "attrs": dict,
    "events": list,
}
_METRICS_REQUIRED = {
    "v": int,
    "type": str,
    "counters": dict,
    "gauges": dict,
    "histograms": dict,
    "perf": dict,
}
_HISTOGRAM_KEYS = {"count", "sum", "min", "max", "p50", "p95", "p99"}
_PERF_KEYS = {"hits", "misses", "events", "seconds"}


def validate_record(record: dict) -> None:
    """Raise :class:`~repro.errors.ReproError` unless *record* fits the schema."""
    if not isinstance(record, dict):
        raise ReproError(f"telemetry record is not an object: {record!r}")
    if record.get("v") != SCHEMA_VERSION:
        raise ReproError(
            f"telemetry record envelope version {record.get('v')!r} is not "
            f"the supported v{SCHEMA_VERSION}"
        )
    kind = record.get("type")
    if kind == "span":
        _require(record, _SPAN_REQUIRED)
        if record["duration_ms"] < 0:
            raise ReproError(f"span {record['name']!r} has negative duration")
        parent = record.get("parent")
        if parent is not None and not isinstance(parent, int):
            raise ReproError(f"span parent must be int or null: {parent!r}")
        if "remote" in record and record["remote"] is not True:
            raise ReproError(
                f"span remote marker must be true when present: "
                f"{record['remote']!r}"
            )
        for event in record["events"]:
            if not isinstance(event, dict) or not isinstance(
                event.get("name"), str
            ) or not isinstance(event.get("at_ms"), (int, float)) or not isinstance(
                event.get("attrs"), dict
            ):
                raise ReproError(f"malformed span event: {event!r}")
    elif kind == "metrics":
        _require(record, _METRICS_REQUIRED)
        for name, summary in record["histograms"].items():
            if not isinstance(summary, dict) or set(summary) != _HISTOGRAM_KEYS:
                raise ReproError(f"malformed histogram summary {name!r}: {summary!r}")
        for name, perf in record["perf"].items():
            if not isinstance(perf, dict) or set(perf) != _PERF_KEYS:
                raise ReproError(f"malformed perf entry {name!r}: {perf!r}")
    else:
        raise ReproError(f"unknown telemetry record type: {kind!r}")


def _require(record: dict, spec: dict) -> None:
    for key, types in spec.items():
        if key not in record:
            raise ReproError(
                f"telemetry record missing {key!r}: {sorted(record)}"
            )
        if not isinstance(record[key], types) or isinstance(record[key], bool):
            raise ReproError(
                f"telemetry record field {key!r} has wrong type: "
                f"{record[key]!r}"
            )


def validate_jsonl(text: str) -> int:
    """Validate a whole JSONL document; returns the record count."""
    count = 0
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ReproError(
                f"line {line_number} is not valid JSON: {error}"
            ) from None
        try:
            validate_record(record)
        except ReproError as error:
            raise ReproError(f"line {line_number}: {error}") from None
        count += 1
    return count
