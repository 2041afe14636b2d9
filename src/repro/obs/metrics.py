"""Metrics registry: counters, gauges and fixed-boundary latency histograms.

One process-wide :class:`MetricsRegistry` (owned by the telemetry facade in
:mod:`repro.obs`) holds every metric the engine records:

* :class:`Counter` — a monotonically increasing tally,
* :class:`Gauge` — a last-write-wins sample,
* :class:`Histogram` — a fixed-boundary latency histogram with p50/p95/p99
  and exact min/max/sum summaries, and
* :class:`PerfCounter` — the hit/miss/throughput tally every cache and
  fast path records through :meth:`MetricsRegistry.record_perf_hit`,
  :meth:`~MetricsRegistry.record_perf_miss` and
  :meth:`~MetricsRegistry.record_perf_work`, so ``obs report``/``obs
  export`` see one unified store.

All mutation happens under one registry lock, and :meth:`MetricsRegistry.
snapshot` copies everything atomically — reports render from a snapshot,
never from live objects (a live render can interleave with concurrent
updates and print a torn row).

**Dimensional (labeled) series.**  Every recorder takes an optional
``labels=`` mapping (e.g. ``{"tenant": "alpha"}``).  A labeled sample is
recorded twice under the one lock hold: once into the bare base series
(the roll-up the reports read) and once into a canonical per-label series
keyed ``name{key=value,...}`` with label keys sorted.  :func:`labeled_name`
and :func:`parse_labeled_name` are the two sides of that key convention;
consumers such as :mod:`repro.obs.slo` split snapshot keys back into
``(base, labels)`` pairs to aggregate per tenant.
"""

from __future__ import annotations

import bisect
import threading
from collections.abc import Mapping
from dataclasses import dataclass, field

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "PerfCounter",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BOUNDARIES_MS",
    "labeled_name",
    "parse_labeled_name",
]

#: Default histogram boundaries, in milliseconds: sub-ms resolution at the
#: bottom (Python-level hot paths), decades up to a minute at the top.
DEFAULT_LATENCY_BOUNDARIES_MS: tuple[float, ...] = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
    30000.0, 60000.0,
)


def labeled_name(name: str, labels: Mapping[str, object] | None) -> str:
    """Canonical series key for *name* under *labels*.

    Label keys are sorted, so ``{"b": 1, "a": 2}`` and ``{"a": 2, "b": 1}``
    address the same series; an empty/None mapping returns the bare name.

    >>> labeled_name("gateway.ok", {"tenant": "alpha"})
    'gateway.ok{tenant=alpha}'
    """
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


def parse_labeled_name(series: str) -> tuple[str, dict[str, str]]:
    """Split a series key back into ``(base_name, labels)``.

    Bare names come back with an empty label dict, so callers can iterate
    a snapshot uniformly.

    >>> parse_labeled_name("gateway.ok{tenant=alpha}")
    ('gateway.ok', {'tenant': 'alpha'})
    """
    if not series.endswith("}"):
        return series, {}
    brace = series.find("{")
    if brace < 0:
        return series, {}
    labels: dict[str, str] = {}
    inner = series[brace + 1 : -1]
    if inner:
        for pair in inner.split(","):
            key, _, value = pair.partition("=")
            labels[key] = value
    return series[:brace], labels


@dataclass
class Counter:
    """A monotonically increasing tally."""

    name: str
    value: int = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount


@dataclass
class Gauge:
    """A last-write-wins sample (e.g. current queue depth)."""

    name: str
    value: float = 0.0
    #: False until the first ``set`` so reports can print "-" not "0".
    measured: bool = False

    def set(self, value: float) -> None:
        self.value = float(value)
        self.measured = True


class Histogram:
    """A fixed-boundary histogram of non-negative samples (latencies, sizes).

    ``boundaries`` are the inclusive upper edges of the buckets; samples
    above the last boundary land in an overflow bucket.  Quantiles are
    resolved to the upper edge of the bucket where the cumulative count
    crosses the rank (the conservative convention monitoring systems use);
    ``min``/``max``/``sum`` are exact.
    """

    def __init__(
        self,
        name: str,
        boundaries: tuple[float, ...] = DEFAULT_LATENCY_BOUNDARIES_MS,
    ):
        if list(boundaries) != sorted(boundaries) or not boundaries:
            raise ValueError(f"histogram boundaries must be sorted non-empty: {boundaries!r}")
        self.name = name
        self.boundaries = tuple(float(b) for b in boundaries)
        self.counts = [0] * (len(self.boundaries) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect.bisect_left(self.boundaries, value)] += 1
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def quantile(self, q: float) -> float | None:
        """Upper-edge estimate of the q-quantile (None when empty)."""
        if self.count == 0:
            return None
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if index < len(self.boundaries):
                    return self.boundaries[index]
                return self.max  # overflow bucket: exact max is the edge
        return self.max

    def summary(self) -> dict:
        """JSON-ready summary: count, sum, min/max, p50/p95/p99."""
        return {
            "count": self.count,
            "sum": round(self.sum, 6),
            "min": None if self.min is None else round(self.min, 6),
            "max": None if self.max is None else round(self.max, 6),
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def copy(self) -> "Histogram":
        clone = Histogram(self.name, self.boundaries)
        clone.counts = list(self.counts)
        clone.count = self.count
        clone.sum = self.sum
        clone.min = self.min
        clone.max = self.max
        return clone


@dataclass
class PerfCounter:
    """Hit/miss and throughput tallies of one cache or fast path.

    ``hits``/``misses`` count cache lookups; ``events`` counts units of
    work done (e.g. buckets enumerated) over ``seconds`` of measured time,
    so ``rate`` is a throughput in events per second.

    ``hit_rate``/``rate`` keep their historical contract of returning 0.0
    when nothing was measured; the ``*_or_none`` accessors distinguish
    "unmeasured" (None) from "genuinely zero" (0.0) so reports can print
    ``-`` vs ``0`` correctly.
    """

    name: str
    hits: int = 0
    misses: int = 0
    events: int = 0
    seconds: float = 0.0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate_or_none(self) -> float | None:
        """Fraction of lookups served from cache; None when no lookups."""
        if self.lookups == 0:
            return None
        return self.hits / self.lookups

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache, in [0, 1]."""
        measured = self.hit_rate_or_none
        return 0.0 if measured is None else measured

    @property
    def rate_or_none(self) -> float | None:
        """Events per second; None when no time was measured."""
        if self.seconds <= 0.0:
            return None
        return self.events / self.seconds

    @property
    def rate(self) -> float:
        """Events per second over the measured time (0 when unmeasured)."""
        measured = self.rate_or_none
        return 0.0 if measured is None else measured

    @property
    def measured(self) -> bool:
        """True once the counter has recorded anything at all."""
        return bool(self.lookups or self.events or self.seconds > 0.0)


@dataclass
class MetricsSnapshot:
    """Atomic point-in-time copy of the whole registry."""

    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float | None] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)
    perf: dict[str, PerfCounter] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready form with deterministic (sorted) key order."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {
                k: self.histograms[k].summary() for k in sorted(self.histograms)
            },
            "perf": {
                k: {
                    "hits": c.hits,
                    "misses": c.misses,
                    "events": c.events,
                    "seconds": round(c.seconds, 6),
                }
                for k, c in sorted(self.perf.items())
            },
        }


class MetricsRegistry:
    """Thread-safe registry of every metric family, keyed by name."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._perf: dict[str, PerfCounter] = {}

    # ------------------------------------------------------------------
    # Accessors (create on first use)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        with self._lock:
            found = self._counters.get(name)
            if found is None:
                found = self._counters[name] = Counter(name)
            return found

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            found = self._gauges.get(name)
            if found is None:
                found = self._gauges[name] = Gauge(name)
            return found

    def histogram(
        self,
        name: str,
        boundaries: tuple[float, ...] = DEFAULT_LATENCY_BOUNDARIES_MS,
    ) -> Histogram:
        with self._lock:
            found = self._histograms.get(name)
            if found is None:
                found = self._histograms[name] = Histogram(name, boundaries)
            return found

    def perf_counter(self, name: str) -> PerfCounter:
        with self._lock:
            found = self._perf.get(name)
            if found is None:
                found = self._perf[name] = PerfCounter(name)
            return found

    # ------------------------------------------------------------------
    # Recording (one lock acquisition per sample)
    # ------------------------------------------------------------------
    def add(
        self,
        name: str,
        amount: int = 1,
        labels: Mapping[str, object] | None = None,
    ) -> None:
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter(name)
            counter.add(amount)
            if labels:
                series = labeled_name(name, labels)
                labeled = self._counters.get(series)
                if labeled is None:
                    labeled = self._counters[series] = Counter(series)
                labeled.add(amount)

    def set_gauge(
        self,
        name: str,
        value: float,
        labels: Mapping[str, object] | None = None,
    ) -> None:
        with self._lock:
            self._gauges.setdefault(name, Gauge(name)).set(value)
            if labels:
                series = labeled_name(name, labels)
                self._gauges.setdefault(series, Gauge(series)).set(value)

    def observe(
        self,
        name: str,
        value: float,
        labels: Mapping[str, object] | None = None,
    ) -> None:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram(name)
            histogram.observe(value)
            if labels:
                series = labeled_name(name, labels)
                labeled = self._histograms.get(series)
                if labeled is None:
                    labeled = self._histograms[series] = Histogram(
                        series, histogram.boundaries
                    )
                labeled.observe(value)

    def record_perf_hit(self, name: str, count: int = 1) -> None:
        with self._lock:
            self._perf.setdefault(name, PerfCounter(name)).hits += count

    def record_perf_miss(self, name: str, count: int = 1) -> None:
        with self._lock:
            self._perf.setdefault(name, PerfCounter(name)).misses += count

    def record_perf_work(
        self, name: str, events: int, seconds: float = 0.0
    ) -> None:
        with self._lock:
            found = self._perf.setdefault(name, PerfCounter(name))
            found.events += events
            found.seconds += seconds

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        """Atomic copy of every metric (one lock hold for the whole read)."""
        with self._lock:
            return MetricsSnapshot(
                counters={name: c.value for name, c in self._counters.items()},
                gauges={
                    name: (g.value if g.measured else None)
                    for name, g in self._gauges.items()
                },
                histograms={
                    name: h.copy() for name, h in self._histograms.items()
                },
                perf={
                    name: PerfCounter(
                        name=c.name,
                        hits=c.hits,
                        misses=c.misses,
                        events=c.events,
                        seconds=c.seconds,
                    )
                    for name, c in self._perf.items()
                },
            )

    def reset(self) -> None:
        """Drop every metric (tests and repeated CLI runs)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._perf.clear()

    def reset_perf(self) -> None:
        """Drop only the perf counters, keeping every other metric."""
        with self._lock:
            self._perf.clear()


#: The process-wide registry.  It lives here — a leaf module — so both the
#: telemetry facade (:mod:`repro.obs`) and the hot paths that record perf
#: counters into it (the inverse mapping, the planner, the memo caches) can
#: share it without an import cycle.
_DEFAULT_REGISTRY = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The registry the global telemetry instance observes into."""
    return _DEFAULT_REGISTRY
