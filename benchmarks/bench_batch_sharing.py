"""Extension benchmark: shared bucket reads across a query batch.

A batch of overlapping partial match queries deduplicates device reads;
the sharing factor quantifies the saving versus query-at-a-time execution.
"""

from repro.core.fx import FXDistribution
from repro.engine import BatchEngine
from repro.hashing.fields import FileSystem
from repro.query.workload import QueryWorkload, WorkloadSpec
from repro.storage.parallel_file import PartitionedFile

FS = FileSystem.of(8, 8, 8, m=8)


def _setup():
    pf = PartitionedFile(FXDistribution(FS))
    pf.insert_all([(i, i * 5, i * 11) for i in range(300)])
    workload = QueryWorkload(
        FS, WorkloadSpec(spec_probability=0.5, exclude_trivial=True, seed=3)
    )
    return pf, workload.take(24)


def bench_batched_execution(benchmark, show):
    pf, queries = _setup()
    engine = BatchEngine(pf)
    report = benchmark(engine.execute, queries)
    assert report.sharing_factor > 1.0
    show(
        f"batch of {len(queries)} queries: {report.naive_reads} naive"
        f" reads -> {report.unique_reads} deduplicated"
        f" (sharing factor {report.sharing_factor:.2f}x)"
    )


def bench_query_at_a_time(benchmark):
    from repro.storage.executor import QueryExecutor

    pf, queries = _setup()
    executor = QueryExecutor(pf)

    def run():
        return [executor.execute(q) for q in queries]

    results = benchmark(run)
    assert len(results) == len(queries)
