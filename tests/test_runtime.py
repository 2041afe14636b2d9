"""Tests for the fault-tolerant execution runtime (repro.runtime)."""

import pytest

from repro.api import make_method
from repro.core.fx import FXDistribution
from repro.distribution.replicated import ChainedReplicaScheme
from repro.errors import ConfigurationError
from repro.hashing.fields import FileSystem
from repro.query.box import BoxQuery
from repro.query.workload import QueryWorkload, WorkloadSpec
from repro.runtime import (
    DegradedExecutor,
    FaultAwareQuerySimulator,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
)
from repro.storage.executor import QueryExecutor
from repro.storage.parallel_file import PartitionedFile
from repro.storage.replicated_file import ReplicatedFile
from repro.storage.simulator import ParallelQuerySimulator, poisson_arrivals

FS = FileSystem.of(8, 8, m=8)

RECORDS = [(3 * i % 256, 7 * i % 256) for i in range(48)]

#: Range, IN-list and mixed box queries over hashed values.
BOXES = [
    BoxQuery.from_spec(FS, {0: (1, 3)}),
    BoxQuery.from_spec(FS, {0: [0, 5], 1: (2, 6)}),
    BoxQuery.from_spec(FS, {1: [1, 4, 7]}),
]


def _replicated_file():
    rf = ReplicatedFile(ChainedReplicaScheme(FXDistribution(FS)))
    rf.insert_all(RECORDS)
    return rf


def _plain_file():
    pf = PartitionedFile(FXDistribution(FS))
    pf.insert_all(RECORDS)
    return pf


def _arrivals(n=40, seed=0):
    workload = QueryWorkload(
        FS, WorkloadSpec(spec_probability=0.5, exclude_trivial=True, seed=seed)
    )
    return poisson_arrivals(workload, n, rate_qps=10.0, seed=seed)


class TestFaultPlan:
    def test_trivial_plan(self):
        assert FaultPlan.none().is_trivial
        assert not FaultPlan.fail([2]).is_trivial
        assert not FaultPlan(transient_error_rate=0.1).is_trivial

    def test_rejects_bad_error_rate(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(transient_error_rate=1.0)
        with pytest.raises(ConfigurationError):
            FaultPlan(transient_error_rate=-0.5)

    def test_rejects_negative_device(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(failed_devices=frozenset({-1}))

    def test_rejects_nonpositive_slow_factor(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(slow_factors={0: 0.0})

    def test_injector_rejects_out_of_range_devices(self):
        with pytest.raises(ConfigurationError):
            FaultInjector(FaultPlan.fail([9]), m=8)


class TestFaultInjector:
    def test_draws_are_deterministic_and_order_independent(self):
        plan = FaultPlan(seed=11, transient_error_rate=0.3)
        a = FaultInjector(plan, m=8)
        b = FaultInjector(plan, m=8)
        forward = [
            a.attempt_fails(d, q, k)
            for d in range(8) for q in range(20) for k in (1, 2, 3)
        ]
        backward = [
            b.attempt_fails(d, q, k)
            for d in reversed(range(8))
            for q in reversed(range(20))
            for k in (3, 2, 1)
        ]
        assert forward == list(reversed(backward))
        assert any(forward) and not all(forward)

    def test_seed_changes_draws(self):
        base = FaultPlan(seed=1, transient_error_rate=0.3)
        other = FaultPlan(seed=2, transient_error_rate=0.3)
        draws = lambda plan: [  # noqa: E731
            FaultInjector(plan, 8).attempt_fails(d, q, 1)
            for d in range(8) for q in range(50)
        ]
        assert draws(base) != draws(other)

    def test_failed_devices_never_draw(self):
        plan = FaultPlan(failed_devices=frozenset({3}),
                         transient_error_rate=0.99)
        injector = FaultInjector(plan, m=8)
        assert not any(injector.attempt_fails(3, q, 1) for q in range(50))
        alive = [d for d in range(8) if not injector.is_failed(d)]
        assert alive == [0, 1, 2, 4, 5, 6, 7]


class TestRetryPolicy:
    def test_capped_exponential_backoff(self):
        policy = RetryPolicy(max_attempts=6, base_delay_ms=2.0,
                             backoff_factor=2.0, max_delay_ms=10.0)
        assert [policy.delay_before(k) for k in range(1, 7)] == [
            0.0, 2.0, 4.0, 8.0, 10.0, 10.0
        ]
        assert policy.total_backoff_ms(4) == 14.0

    def test_timeout(self):
        assert RetryPolicy(timeout_ms=5.0).exceeds_timeout(5.1)
        assert not RetryPolicy(timeout_ms=5.0).exceeds_timeout(5.0)
        assert not RetryPolicy().exceeds_timeout(1e9)

    def test_none_policy_is_single_attempt(self):
        policy = RetryPolicy.none()
        assert policy.max_attempts == 1
        assert policy.total_backoff_ms(1) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(timeout_ms=0.0)


class TestDegradedExecutorFailover:
    def test_failover_records_identical_to_fault_free_run(self):
        """The acceptance scenario: 1 failed device of M=8, replicated FX —
        the degraded run must return exactly the fault-free record list."""
        rf = _replicated_file()
        clean = DegradedExecutor(rf)
        for failed in range(FS.m):
            masked = DegradedExecutor(rf, plan=FaultPlan.fail([failed]))
            compared = 0
            for record in RECORDS[:10]:
                want = clean.search({0: record[0]})
                got = masked.search({0: record[0]})
                assert got.records == want.records
                assert got.completeness == 1.0
                assert got.lost_buckets == 0
                compared += len(want.records)
            for box in BOXES:
                want = clean.execute_box(box)
                got = masked.execute_box(box)
                assert got.records == want.records
                assert got.completeness == 1.0
                assert got.lost_buckets == 0
                compared += len(want.records)
            assert compared > 0  # the scenario must actually read data

    def test_failover_matches_plain_executor_order(self):
        plain = _plain_file().search({0: RECORDS[0][0]})
        masked = DegradedExecutor(
            _replicated_file(), plan=FaultPlan.fail([2])
        ).search({0: RECORDS[0][0]})
        assert plain.records == masked.records
        assert plain.records  # non-trivial comparison

    def test_failover_counter_nonzero(self):
        masked = DegradedExecutor(
            _replicated_file(), plan=FaultPlan.fail([0])
        )
        result = masked.execute(masked.file.query({0: RECORDS[0][0]}))
        assert result.failovers > 0
        assert result.failed_devices == (0,)

    def test_adjacent_double_failure_loses_buckets(self):
        masked = DegradedExecutor(
            _replicated_file(), plan=FaultPlan.fail([1, 2])
        )
        result = masked.search({0: RECORDS[0][0]})
        # device 1's backup (device 2) is down too: data is reported lost,
        # not raised.
        assert result.lost_buckets > 0
        assert result.completeness < 1.0
        assert not result.is_complete

    def test_without_replicas_reports_partial_results(self):
        exposed = DegradedExecutor(_plain_file(), plan=FaultPlan.fail([0]))
        degraded = [
            exposed.search({0: record[0]}) for record in RECORDS[:10]
        ]
        assert all(r.completeness < 1.0 for r in degraded)
        assert all(0.0 < r.completeness for r in degraded)
        assert any(r.lost_buckets > 0 for r in degraded)

    def test_trivial_plan_is_transparent(self):
        pf = _plain_file()
        runtime = DegradedExecutor(pf)
        for record in RECORDS[:5]:
            want = pf.search({0: record[0]})
            got = runtime.search({0: record[0]})
            assert got.records == want.records
            assert got.completeness == 1.0
            assert got.retries == got.timeouts == got.failovers == 0
        oracle = QueryExecutor(pf)
        for box in BOXES:
            want = oracle.execute_box(box)
            got = runtime.execute_box(box)
            assert got.records and got.records == want.records
            assert got.buckets_per_device == want.buckets_per_device
            assert got.response_time_ms == want.response_time_ms
            assert got.completeness == 1.0

    def test_to_dict_includes_fault_diagnostics(self):
        runtime = DegradedExecutor(
            _replicated_file(), plan=FaultPlan.fail([0])
        )
        data = runtime.search({0: RECORDS[0][0]}).to_dict()
        assert data["failed_devices"] == [0]
        assert data["completeness"] == 1.0
        assert data["failovers"] > 0
        assert "response_time_ms" in data and "records" in data

    def test_timeout_abandons_slow_device(self):
        exposed = DegradedExecutor(
            _plain_file(),
            plan=FaultPlan(slow_factors={0: 100.0}),
            retry=RetryPolicy(max_attempts=1, timeout_ms=50.0),
        )
        result = exposed.search({0: RECORDS[0][0]})
        assert result.timeouts == 1
        assert result.completeness < 1.0
        # the abandoned device's modelled time is capped at the timeout
        assert result.response_time_ms <= 50.0 + 1e-9

    def test_timeout_fails_over_when_replicated(self):
        rf = _replicated_file()
        clean = DegradedExecutor(rf)
        masked = DegradedExecutor(
            rf,
            plan=FaultPlan(slow_factors={0: 100.0}),
            retry=RetryPolicy(max_attempts=1, timeout_ms=50.0),
        )
        for record in RECORDS[:5]:
            assert (
                masked.search({0: record[0]}).records
                == clean.search({0: record[0]}).records
            )


class TestFaultAwareSimulator:
    PLAN = FaultPlan(
        seed=5,
        failed_devices=frozenset({2}),
        transient_error_rate=0.2,
        slow_factors={1: 2.0},
    )

    def test_same_seed_identical_report(self):
        """Seeded determinism: two runs of one scenario agree exactly."""

        def run():
            method = FXDistribution(FS)
            scheme = ChainedReplicaScheme(method)
            sim = FaultAwareQuerySimulator(
                method, plan=self.PLAN,
                retry=RetryPolicy(timeout_ms=500.0), scheme=scheme,
            )
            return sim.run(_arrivals())

        assert run() == run()

    def test_different_seed_differs(self):
        def run(seed):
            method = FXDistribution(FS)
            plan = FaultPlan(seed=seed, transient_error_rate=0.3)
            return FaultAwareQuerySimulator(method, plan=plan).run(_arrivals())

        assert run(1) != run(2)

    def test_failover_keeps_completeness_at_one(self):
        method = FXDistribution(FS)
        report = FaultAwareQuerySimulator(
            method,
            plan=FaultPlan.fail([2]),
            scheme=ChainedReplicaScheme(method),
        ).run(_arrivals())
        assert report.failovers > 0
        assert report.mean_completeness == 1.0
        assert report.lost_buckets == 0
        # the failed device never runs anything
        assert report.device_busy_ms[2] == 0.0

    def test_without_scheme_completeness_drops(self):
        report = FaultAwareQuerySimulator(
            FXDistribution(FS), plan=FaultPlan.fail([2])
        ).run(_arrivals())
        assert report.failovers == 0
        assert report.lost_buckets > 0
        assert 0.0 < report.mean_completeness < 1.0
        assert report.failed_devices == (2,)

    def test_scheme_over_other_method_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultAwareQuerySimulator(
                FXDistribution(FS),
                scheme=ChainedReplicaScheme(FXDistribution(FS)),
            )

    def test_straggler_slows_the_stream(self):
        method = FXDistribution(FS)
        nominal = FaultAwareQuerySimulator(method).run(_arrivals())
        slowed = FaultAwareQuerySimulator(
            FXDistribution(FS), plan=FaultPlan(slow_factors={0: 4.0})
        ).run(_arrivals())
        assert slowed.mean_latency_ms > nominal.mean_latency_ms

    def test_report_to_dict_round_trips_counters(self):
        method = FXDistribution(FS)
        report = FaultAwareQuerySimulator(
            method, plan=self.PLAN, scheme=ChainedReplicaScheme(method)
        ).run(_arrivals())
        data = report.to_dict()
        assert data["queries"] == len(report.queries)
        assert data["retries"] == report.retries
        assert data["failovers"] == report.failovers
        assert data["failed_devices"] == [2]
        assert 0.0 <= data["mean_completeness"] <= 1.0

    @pytest.mark.parametrize("name", ["fx", "modulo", "gdm"])
    def test_fault_free_run_matches_the_plain_simulator(self, name):
        """Both simulators run one stream loop; with no faults the
        fault-aware steps change nothing."""
        method = make_method(name, fields=(8, 8), devices=8)
        arrivals = _arrivals(n=200)
        plain = ParallelQuerySimulator(method).run(arrivals)
        faulty = FaultAwareQuerySimulator(method).run(arrivals)
        assert faulty.to_dict() == plain.to_dict()


class TestRuntimeCounters:
    def test_degraded_queries_and_failovers_recorded(self):
        from repro.obs.metrics import default_registry

        registry = default_registry()
        registry.reset_perf()
        DegradedExecutor(
            _replicated_file(), plan=FaultPlan.fail([0])
        ).search({0: RECORDS[0][0]})
        DegradedExecutor(
            _plain_file(), plan=FaultPlan.fail([0])
        ).search({0: RECORDS[0][0]})
        counters = registry.snapshot().perf
        assert counters["runtime.queries"].events == 2
        assert counters["runtime.failovers"].events > 0
        assert counters["runtime.degraded_queries"].events == 2


class TestFaultsCli:
    def test_faults_run_json(self, capsys):
        import json

        from repro.cli import main

        assert main([
            "faults", "run", "--fields", "8,8", "--devices", "8",
            "--queries", "30", "--fail", "2", "--replicate", "--json",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["queries"] == 30
        assert data["failovers"] > 0
        assert data["mean_completeness"] == 1.0

    def test_faults_report_shows_failover_counters(self, capsys):
        from repro.cli import main

        assert main([
            "faults", "report", "--fields", "8,8", "--devices", "8",
            "--queries", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert "P(no data loss)" in out
        assert "runtime.failovers" in out
        assert "FX + replicas" in out

    def test_faults_bad_slow_spec_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main([
                "faults", "run", "--fields", "4,4", "--devices", "4",
                "--slow", "nope",
            ])

    def test_simulate_json(self, capsys):
        import json

        from repro.cli import main

        assert main([
            "simulate", "--fields", "4,4", "--devices", "4",
            "--queries", "10", "--json",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"FX", "Modulo", "GDM"}
        assert data["FX"]["queries"] == 10
