"""Tests for the unified telemetry layer (``repro.obs``).

Covers the injectable clocks, span tracing and nesting, the metrics
registry (including the perf counters), the structured event log
and its JSONL schema, the byte-identical deterministic export, the
telemetry-driven optimality checker, and the ``repro obs`` CLI group.
"""

import json
import sys
import threading

import pytest

from repro import obs
from repro.cli import _perf_table, main
from repro.core.fx import FXDistribution
from repro.core.optimality import optimality_report
from repro.distribution.modulo import ModuloDistribution
from repro.engine.batch import BatchEngine
from repro.errors import AnalysisError, ReproError
from repro.hashing.fields import FileSystem
from repro.obs import (
    EventLog,
    Histogram,
    ManualClock,
    MetricsRegistry,
    MonotonicClock,
    ObservedOptimalityChecker,
    Telemetry,
    jsonl_line,
    telemetry,
    trace_span,
    validate_jsonl,
    validate_record,
)
from repro.query.partial_match import PartialMatchQuery
from repro.query.patterns import all_patterns, queries_for_pattern
from repro.storage.executor import QueryExecutor
from repro.storage.parallel_file import PartitionedFile


@pytest.fixture(autouse=True)
def _clean_telemetry():
    obs.configure(enabled=True, clock=MonotonicClock(), reset=True)
    yield
    obs.configure(enabled=True, clock=MonotonicClock(), reset=True)


# ----------------------------------------------------------------------
# Clocks
# ----------------------------------------------------------------------
class TestClocks:
    def test_manual_clock_fixed_step(self):
        clock = ManualClock(step=0.5)
        assert (clock.now(), clock.now(), clock.now()) == (0.0, 0.5, 1.0)

    def test_manual_clock_advance(self):
        clock = ManualClock(start=1.0, step=0.001)
        clock.advance(2.0)
        assert clock.now() == pytest.approx(3.0)

    def test_monotonic_clock_moves_forward(self):
        clock = MonotonicClock()
        assert clock.now() <= clock.now()

    def test_process_clock_follows_configure(self):
        obs.configure(clock=ManualClock(start=5.0, step=0.0))
        assert obs.clock.now() == pytest.approx(5.0)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_span_records_name_attrs_and_duration(self):
        t = Telemetry(clock=ManualClock(step=0.001))
        with t.tracer.span("work", kind="test") as span:
            span.set_attr("extra", 7)
            span.add_event("tick", n=1)
        [record] = t.events.records()
        assert record["name"] == "work"
        assert record["attrs"] == {"kind": "test", "extra": 7}
        assert record["duration_ms"] == pytest.approx(1.0)
        assert record["events"] == [
            {"name": "tick", "at_ms": pytest.approx(2.0), "attrs": {"n": 1}}
        ]

    def test_nested_spans_link_parents(self):
        t = Telemetry(clock=ManualClock())
        with t.tracer.span("outer") as outer:
            with t.tracer.span("inner"):
                assert t.tracer.current().name == "inner"
            assert t.tracer.current() is outer
        inner, outer_rec = t.events.records()
        assert inner["name"] == "inner"
        assert inner["parent"] == outer_rec["id"]
        assert outer_rec["parent"] is None

    def test_span_ids_sequential_and_reset(self):
        t = Telemetry(clock=ManualClock())
        with t.tracer.span("a"):
            pass
        with t.tracer.span("b"):
            pass
        ids = [r["id"] for r in t.events.records()]
        assert ids == [1, 2]
        t.reset()
        with t.tracer.span("c"):
            pass
        assert t.events.records()[0]["id"] == 1

    def test_disabled_tracer_is_a_noop(self):
        t = Telemetry(clock=ManualClock(), enabled=False)
        with t.tracer.span("invisible") as span:
            span.set_attr("k", 1)
            span.add_event("e")
        assert len(t.events) == 0
        assert t.metrics.snapshot().histograms == {}

    def test_span_duration_lands_in_histogram(self):
        t = Telemetry(clock=ManualClock(step=0.002))
        with t.tracer.span("timed"):
            pass
        histogram = t.metrics.snapshot().histograms["span.timed.ms"]
        assert histogram.count == 1
        assert histogram.max == pytest.approx(2.0)

    def test_global_trace_span_appends_to_global_log(self):
        with trace_span("global.test", x=1):
            pass
        names = [r["name"] for r in telemetry().events.records()]
        assert "global.test" in names


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestHistogram:
    def test_quantiles_resolve_to_upper_edge(self):
        h = Histogram("h", boundaries=(1.0, 10.0, 100.0))
        for value in (0.5, 0.7, 5.0, 50.0):
            h.observe(value)
        assert h.quantile(0.50) == pytest.approx(1.0)
        assert h.quantile(0.95) == pytest.approx(100.0)
        assert h.min == pytest.approx(0.5)
        assert h.max == pytest.approx(50.0)
        assert h.sum == pytest.approx(56.2)

    def test_overflow_bucket_reports_exact_max(self):
        h = Histogram("h", boundaries=(1.0,))
        h.observe(123.0)
        assert h.quantile(0.99) == pytest.approx(123.0)

    def test_empty_histogram_quantile_is_none(self):
        h = Histogram("h")
        assert h.quantile(0.5) is None
        assert h.summary()["count"] == 0

    def test_unsorted_boundaries_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", boundaries=(2.0, 1.0))


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.add("c", 3)
        registry.add("c")
        registry.set_gauge("g", 1.5)
        registry.observe("h", 0.2)
        snap = registry.snapshot()
        assert snap.counters["c"] == 4
        assert snap.gauges["g"] == pytest.approx(1.5)
        assert snap.histograms["h"].count == 1

    def test_unmeasured_gauge_snapshots_as_none(self):
        registry = MetricsRegistry()
        registry.gauge("pending")
        assert registry.snapshot().gauges["pending"] is None

    def test_snapshot_is_a_copy(self):
        registry = MetricsRegistry()
        registry.observe("h", 1.0)
        snap = registry.snapshot()
        registry.observe("h", 2.0)
        assert snap.histograms["h"].count == 1
        assert registry.snapshot().histograms["h"].count == 2

    def test_to_dict_sorts_keys(self):
        registry = MetricsRegistry()
        registry.add("zeta")
        registry.add("alpha")
        assert list(registry.snapshot().to_dict()["counters"]) == [
            "alpha", "zeta",
        ]


class TestPerfFold:
    """Perf counters live in the registry beside the other metrics."""

    def test_none_aware_accessors(self):
        metrics = telemetry().metrics
        c = metrics.perf_counter("untouched")
        assert c.hit_rate_or_none is None
        assert c.rate_or_none is None
        assert not c.measured
        assert c.hit_rate == 0.0 and c.rate == 0.0
        metrics.record_perf_hit("untouched")
        assert c.hit_rate_or_none == pytest.approx(1.0)
        assert c.measured

    def test_render_report_prints_dash_for_unmeasured(self):
        metrics = telemetry().metrics
        metrics.record_perf_work("dash_check", events=5, seconds=0.0)
        text = _perf_table(metrics.snapshot())
        line = next(l for l in text.splitlines() if "dash_check" in l)
        assert "-" in line  # no lookups and no measured seconds

    def test_reset_counters_leaves_other_metrics(self):
        metrics = telemetry().metrics
        metrics.add("survivor")
        metrics.record_perf_hit("doomed")
        metrics.reset_perf()
        snap = metrics.snapshot()
        assert "doomed" not in snap.perf
        assert snap.counters["survivor"] == 1


# ----------------------------------------------------------------------
# Event log and schema
# ----------------------------------------------------------------------
def _appended_bytes(record) -> int:
    """What *record* costs an event log's budget once appended."""
    probe = EventLog()
    probe.append(record)
    return probe.estimated_bytes


class TestEventLog:
    def test_ring_evicts_but_counts_all_appends(self):
        # Room for exactly three of these equal-sized records.
        log = EventLog(budget_bytes=3 * _appended_bytes({"i": 2}))
        for i in range(5):
            log.append({"i": i})
        assert len(log) == 3
        assert log.appended == 5
        assert log.evicted == 2
        assert log.estimated_bytes == log.budget_bytes
        assert [r["i"] for r in log.records()] == [2, 3, 4]

    def test_tail(self):
        log = EventLog()
        for i in range(4):
            log.append({"i": i})
        assert [r["i"] for r in log.tail(2)] == [2, 3]
        assert log.tail(0) == []

    def test_concurrent_spans_keep_the_accounting(self):
        log = EventLog(budget_bytes=50_000)
        tracer = Telemetry(clock=ManualClock()).tracer
        tracer.event_log = log
        per_thread = 400

        def worker(index):
            for i in range(per_thread):
                with tracer.span("work", thread=index, i=i) as span:
                    span.set_attr("done", True)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(index,))
                for index in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert log.appended == 8 * per_thread
        assert log.evicted == log.appended - len(log) > 0
        assert log.estimated_bytes == sum(log._sizes) <= log.budget_bytes
        assert {r["attrs"]["done"] for r in log.records()} == {True}

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            EventLog(budget_bytes=0)

    def test_wide_batch_spans_stay_within_the_budget(self, monkeypatch):
        fs = FileSystem.of(16, 16, 16, m=16)
        method = FXDistribution(fs)
        engine = BatchEngine(PartitionedFile(method))
        budget = 40_000
        log = EventLog(budget_bytes=budget)
        monkeypatch.setattr(telemetry().tracer, "event_log", log)
        eager = []
        batches = 60
        for b in range(batches):
            queries = [
                PartialMatchQuery.from_dict(fs, {0: (b + i) % 16, 2: i % 3})
                for i in range(12)
            ] + [PartialMatchQuery.from_dict(fs, {1: b % 16})]
            engine.execute(queries)
            assert log.estimated_bytes <= budget
            [record] = log.tail(1)
            assert record["attrs"]["per_query"] == [
                {
                    "query": query.describe(),
                    "qualified": query.qualified_count,
                    "buckets_per_device": [
                        len(list(method.qualified_on_device(device, query)))
                        for device in range(fs.m)
                    ],
                }
                for query in queries
            ]
            eager.append(jsonl_line(record))
        retained = len(log)
        assert 0 < retained < batches
        assert log.appended == batches
        assert log.evicted == batches - retained
        assert (
            telemetry().metrics.snapshot().counters["obs.events_evicted"]
            == log.evicted
        )
        assert log.to_jsonl() == "".join(eager[-retained:])

    def test_jsonl_line_is_canonical(self):
        assert jsonl_line({"b": 1, "a": 2}) == '{"a":2,"b":1}\n'


class TestSchema:
    def _span_record(self):
        t = Telemetry(clock=ManualClock())
        with t.tracer.span("s", k=1) as span:
            span.add_event("e", n=2)
        return t.events.records()[0]

    def test_valid_span_and_metrics_records_pass(self):
        validate_record(self._span_record())
        metrics = telemetry().metrics.snapshot().to_dict()
        metrics["type"] = "metrics"
        metrics["v"] = 1
        validate_record(metrics)

    def test_missing_or_wrong_envelope_version_rejected(self):
        record = self._span_record()
        assert record["v"] == 1
        del record["v"]
        with pytest.raises(ReproError):
            validate_record(record)
        record["v"] = 2
        with pytest.raises(ReproError):
            validate_record(record)

    def test_unknown_type_rejected(self):
        with pytest.raises(ReproError):
            validate_record({"type": "mystery"})

    def test_missing_field_rejected(self):
        record = self._span_record()
        del record["duration_ms"]
        with pytest.raises(ReproError):
            validate_record(record)

    def test_validate_jsonl_counts_and_pinpoints_lines(self):
        good = jsonl_line(self._span_record())
        assert validate_jsonl(good * 3) == 3
        with pytest.raises(ReproError, match="line 2"):
            validate_jsonl(good + "not json\n")


# ----------------------------------------------------------------------
# Deterministic export
# ----------------------------------------------------------------------
class TestDeterministicExport:
    @staticmethod
    def _replay_and_export() -> str:
        obs.configure(clock=ManualClock(step=0.001), reset=True)
        fs = FileSystem.of(2, 2, 2, m=8)
        pf = PartitionedFile(FXDistribution(fs))
        pf.insert_all([(i, i + 1, i + 2) for i in range(8)])
        executor = QueryExecutor(pf)
        for spec in ({0: 1}, {1: 0, 2: 1}, {}):
            executor.execute(PartialMatchQuery.from_dict(fs, spec))
        return telemetry().export_jsonl()

    def test_two_runs_export_identical_bytes(self):
        first = self._replay_and_export()
        second = self._replay_and_export()
        assert first == second
        assert validate_jsonl(first) == len(first.splitlines())

    def test_export_ends_with_metrics_record(self):
        text = self._replay_and_export()
        last = json.loads(text.splitlines()[-1])
        assert last["type"] == "metrics"
        assert last["counters"]["query.executed"] == 3


# ----------------------------------------------------------------------
# Observed optimality checker
# ----------------------------------------------------------------------
class TestObservedOptimalityChecker:
    def test_fx_figure1_workload_matches_closed_form(self):
        """Acceptance: FX on (M=8, F=(2,2,2)) — every query's per-device
        maxima, read from telemetry alone, equal the closed form."""
        fs = FileSystem.of(2, 2, 2, m=8)
        method = FXDistribution(fs)
        queries = [
            q
            for pattern in all_patterns(fs.n_fields)
            for q in queries_for_pattern(fs, pattern)
        ]
        report = ObservedOptimalityChecker(method).replay(queries)
        assert report.queries == len(queries)
        assert report.consistent, report.summary()
        for observation in report.observations:
            assert observation.observed_max == max(
                observation.closed_form_per_device
            )
        # The per-pattern verdicts rebuilt from telemetry must equal the
        # closed-form census verdicts, pattern for pattern.
        closed = optimality_report(method)
        failing_patterns = {pattern for pattern, __, __ in closed.failures}
        telemetry_failing = {
            query.pattern
            for query, observation in zip(queries, report.observations)
            if not observation.strict_optimal
        }
        assert telemetry_failing == failing_patterns

    def test_non_optimal_method_yields_violations(self):
        fs = FileSystem.of(4, 4, m=4)
        method = ModuloDistribution(fs)
        closed = optimality_report(method)
        queries = [
            q
            for pattern in all_patterns(fs.n_fields)
            for q in queries_for_pattern(fs, pattern)
        ]
        report = ObservedOptimalityChecker(method).replay(queries)
        assert report.consistent
        assert bool(report.violations) == bool(closed.failures)

    def test_disabled_telemetry_raises(self):
        fs = FileSystem.of(2, 2, m=4)
        obs.configure(enabled=False)
        try:
            with pytest.raises(AnalysisError, match="disabled"):
                ObservedOptimalityChecker(FXDistribution(fs)).replay([])
        finally:
            obs.configure(enabled=True)

    @staticmethod
    def _swap_log(monkeypatch, budget_bytes: int) -> EventLog:
        log = EventLog(budget_bytes=budget_bytes)
        monkeypatch.setattr(telemetry(), "events", log)
        monkeypatch.setattr(telemetry().tracer, "event_log", log)
        return log

    def test_oversized_trace_rejected(self, monkeypatch):
        fs = FileSystem.of(2, 2, m=4)
        checker = ObservedOptimalityChecker(FXDistribution(fs))
        queries = [PartialMatchQuery.from_dict(fs, {0: 0})] * 5
        checker.replay(queries[:1])
        span_bytes = telemetry().events.estimated_bytes
        # One byte short of a single query.execute span: the first span
        # evicts itself, and the replay cannot read it.
        small = self._swap_log(monkeypatch, span_bytes - 1)
        with pytest.raises(AnalysisError, match="evicted"):
            checker.replay(queries)
        assert (small.appended, small.evicted, len(small)) == (1, 1, 0)

    def test_replay_reads_past_the_budget(self, monkeypatch):
        fs = FileSystem.of(2, 2, m=4)
        checker = ObservedOptimalityChecker(FXDistribution(fs))
        queries = [PartialMatchQuery.from_dict(fs, {0: i % 2}) for i in range(5)]
        checker.replay(queries[:1])
        span_bytes = telemetry().events.estimated_bytes
        # Room for two and a half query.execute spans: the replay's older
        # spans are evicted as it goes, and every query is still checked.
        small = self._swap_log(monkeypatch, span_bytes * 5 // 2)
        report = checker.replay(queries)
        assert report.queries == 5 and report.consistent
        assert (small.appended, small.evicted, len(small)) == (5, 3, 2)
        # A batched replay evicts the older spans, not its own.
        batched = checker.replay(queries, batched=True)
        assert batched.queries == 5 and batched.consistent
        assert small.appended == 6 and small.evicted > 3
        assert small.tail(1)[0]["name"] == "query.batch"

    def test_report_to_dict(self):
        fs = FileSystem.of(2, 2, m=4)
        report = ObservedOptimalityChecker(FXDistribution(fs)).replay(
            [PartialMatchQuery.from_dict(fs, {0: 1})]
        )
        data = report.to_dict()
        assert data["queries"] == 1
        assert data["consistent"] is True


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestObsCli:
    BASE = ["obs", "--fields", "2,2,2", "--devices", "8", "--queries", "8"]

    def test_report_prints_tables(self, capsys):
        assert main(self.BASE[:1] + ["report"] + self.BASE[1:]) == 0
        out = capsys.readouterr().out
        assert "Latency histograms" in out
        assert "span.query.execute.ms" in out
        assert "query.executed" in out
        assert "telemetry events retained" in out

    def test_export_stdout_validates(self, capsys):
        argv = self.BASE[:1] + ["export"] + self.BASE[1:] + ["--validate"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert validate_jsonl(out) == len(out.splitlines())

    def test_export_deterministic_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            argv = self.BASE[:1] + ["export"] + self.BASE[1:] + [
                "--deterministic-clock", "--validate", "--jsonl", str(path),
            ]
            assert main(argv) == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_tail_prints_spans(self, capsys):
        argv = self.BASE[:1] + ["tail"] + self.BASE[1:] + ["--lines", "3"]
        assert main(argv) == 0
        out = capsys.readouterr().out.splitlines()
        assert 0 < len(out) <= 3
        assert any("query.execute" in line for line in out)

    def test_check_strict_optimal_exit_zero(self, capsys):
        argv = self.BASE[:1] + ["check"] + self.BASE[1:]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "strict optimal from telemetry" in out
        assert "0 closed-form disagreements" in out

    @pytest.mark.parametrize(
        "devices, queries, batched",
        [(64, 300, False), (64, 300, True), (128, 200, False)],
    )
    def test_check_past_the_default_budget(
        self, devices, queries, batched, capsys
    ):
        argv = [
            "obs", "check", "--fields", "4,4,4,4",
            "--devices", str(devices), "--queries", str(queries),
        ] + (["--batched"] if batched else [])
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert f"{queries} queries replayed" in out
        assert "0 closed-form disagreements" in out
        events = telemetry().events
        if batched:
            assert events.evicted == 0
        else:
            # The serial spans outgrew the default budget along the way.
            assert events.budget_bytes == obs.DEFAULT_BUDGET_BYTES
            assert events.evicted > 0

    def test_export_keeps_every_span_past_the_default_budget(self, capsys):
        argv = [
            "obs", "export", "--fields", "4,4,4,4", "--devices", "64",
            "--queries", "300", "--validate",
        ]
        assert main(argv) == 0
        records = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        events = telemetry().events
        assert events.estimated_bytes > obs.DEFAULT_BUDGET_BYTES
        assert events.evicted == 0
        spans = [record for record in records if record["type"] == "span"]
        assert len(spans) == events.appended
        assert sum(span["name"] == "query.execute" for span in spans) == 300

    def test_gateway_export_keeps_every_span(
        self, tmp_path, monkeypatch, capsys
    ):
        # With a default budget smaller than the run's spans, the loopback
        # export still holds every span, and a run exporting nothing is
        # bounded by the default.
        events = telemetry().events
        monkeypatch.setattr(events, "budget_bytes", events.budget_bytes)
        monkeypatch.setattr(obs, "DEFAULT_BUDGET_BYTES", 20_000)
        path = tmp_path / "trace.jsonl"
        argv = [
            "gateway", "--fields", "4,4", "--devices", "4",
            "--connections", "2", "--requests", "8",
        ]
        assert main(argv + ["--export-jsonl", str(path)]) == 0
        assert events.estimated_bytes > 20_000 and events.evicted == 0
        exported = [json.loads(line) for line in path.read_text().splitlines()]
        assert sum(r["type"] == "span" for r in exported) == events.appended
        assert main(argv) == 0
        capsys.readouterr()
        assert events.budget_bytes == 20_000 and events.evicted > 0

    def test_check_replays_a_trace_file(self, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        trace.write_text("f0=1 f1=* f2=0\nf0=* f1=* f2=1\n")
        argv = [
            "obs", "check", "--fields", "2,2,2", "--devices", "8",
            "--trace", str(trace),
        ]
        assert main(argv) == 0
        assert "2 queries replayed" in capsys.readouterr().out
