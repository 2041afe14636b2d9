"""One failover rule, applied everywhere a failure set is.

A down device's share of a query is read from its chained backup
``(d + offset) mod M`` when that backup is up, and is lost otherwise.
``survivable``, ``reroute_histogram``, ``FaultAwareQuerySimulator`` and
``DegradedExecutor`` all apply it, so over every failure set of at most
two devices at M=8, offsets 1 and 3, and three queries (222 cases) they
must report the same lost buckets, failovers and degraded per-device
counts.  Where the replicas cover the failures, the degraded read must
also return the serial oracle's records, in its order.
"""

from itertools import combinations

import pytest

from repro.analysis.availability import reroute_histogram, survivable
from repro.api import make_method
from repro.distribution.replicated import ChainedReplicaScheme
from repro.hashing.fields import FileSystem
from repro.query.partial_match import PartialMatchQuery
from repro.runtime import DegradedExecutor, FaultAwareQuerySimulator, FaultPlan
from repro.storage.executor import QueryExecutor
from repro.storage.parallel_file import PartitionedFile
from repro.storage.replicated_file import ReplicatedFile
from repro.storage.simulator import QueryArrival

M = 8
FS = FileSystem.of(8, 8, m=M)
RECORDS = [(i, (i * 37) % 101) for i in range(200)]
FAILURE_SETS = [
    frozenset(failed) for k in range(3) for failed in combinations(range(M), k)
]
QUERIES = [
    PartialMatchQuery.full_scan(FS),
    PartialMatchQuery.from_dict(FS, {0: 5}),
    PartialMatchQuery.from_dict(FS, {1: 2}),
]


def _check_agreement(scheme, query, failures) -> int:
    """Read *query* under each failure set four ways; they must agree.

    Returns the number of failure sets checked.
    """
    method = scheme.base
    rf = ReplicatedFile(scheme)
    rf.insert_all(RECORDS)
    plain = PartitionedFile(method)
    plain.insert_all(RECORDS)
    oracle = QueryExecutor(plain).execute(query).records
    histogram = method.response_histogram(query)
    for failed in failures:
        degraded, lost = reroute_histogram(histogram, failed, scheme.offset)
        failovers = sum(histogram[d] for d in failed) - lost
        plan = FaultPlan.fail(failed)

        result = DegradedExecutor(rf, plan).execute(query)
        assert result.buckets_per_device == degraded, failed
        assert (result.lost_buckets, result.failovers) == (lost, failovers)

        simulator = FaultAwareQuerySimulator(method, plan=plan, scheme=scheme)
        report = simulator.run([QueryArrival(query, 0.0)])
        assert report.device_busy_ms == [float(c) for c in degraded], failed
        assert (report.lost_buckets, report.failovers) == (lost, failovers)

        if lost == 0:
            assert result.completeness == 1.0
            assert result.records == oracle, failed
        else:
            assert result.completeness < 1.0
    return len(failures)


@pytest.mark.parametrize("offset", [1, 3])
def test_failover_rule_agrees_everywhere(offset):
    scheme = make_method("replicated", fields=(8, 8), devices=M, offset=offset)
    cases = 0
    for query in QUERIES:
        histogram = scheme.base.response_histogram(query)
        # every device holds part of each query, so data is lost exactly
        # where the failure set is not survivable
        assert min(histogram) > 0
        for failed in FAILURE_SETS:
            lost = reroute_histogram(histogram, failed, offset)[1]
            assert (lost == 0) == survivable(scheme, failed)
        cases += _check_agreement(scheme, query, FAILURE_SETS)
    assert cases == 111


@pytest.mark.parametrize(
    "base", ["fx", "modulo", "gdm", "random", "zorder", "spanning"]
)
def test_single_failure_full_scan_agrees_over_bases(base):
    scheme = ChainedReplicaScheme(make_method(base, fields=(8, 8), devices=M))
    singles = [frozenset({d}) for d in range(M)]
    assert _check_agreement(scheme, QUERIES[0], singles) == M
