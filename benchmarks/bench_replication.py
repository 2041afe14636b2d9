"""Extension benchmark: degraded-mode load under chained replication.

Measures execution with one failed device: chained placement should push
the failed device's share onto exactly one neighbour (load factor ~2x),
never onto a single full mirror of the whole array.
"""

from repro.core.fx import FXDistribution
from repro.distribution.replicated import ChainedReplicaScheme
from repro.hashing.fields import FileSystem
from repro.query.partial_match import PartialMatchQuery
from repro.runtime import DegradedExecutor, FaultPlan
from repro.storage.replicated_file import ReplicatedFile
from repro.util.tables import format_table

FS = FileSystem.of(8, 8, 8, m=8)


def _loaded():
    rf = ReplicatedFile(ChainedReplicaScheme(FXDistribution(FS)))
    rf.insert_all([(i, i * 3, i * 7) for i in range(500)])
    return rf


def bench_degraded_execution(benchmark, show):
    runtime = DegradedExecutor(_loaded(), FaultPlan.fail([3]))
    query = PartialMatchQuery.full_scan(FS)
    result = benchmark(runtime.execute, query)
    histogram = result.buckets_per_device
    assert histogram[3] == 0
    ideal = FS.bucket_count / FS.m
    # neighbour absorbs the failed share; everyone else stays at ideal
    assert histogram[4] == 2 * ideal
    assert all(h == ideal for i, h in enumerate(histogram) if i not in (3, 4))
    assert len(result.records) == 500
    show(
        format_table(
            ["device", "buckets served (device 3 failed)"],
            list(enumerate(histogram)),
            title=f"Degraded load on {FS.describe()}",
        )
    )


def bench_healthy_execution(benchmark):
    runtime = DegradedExecutor(_loaded())
    query = PartialMatchQuery.full_scan(FS)
    result = benchmark(runtime.execute, query)
    assert result.failovers == 0
