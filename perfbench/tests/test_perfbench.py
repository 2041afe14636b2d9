"""Tests of the benchmark itself: determinism, the checker, smoke runs.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import threading
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
from check import check_reads, records_digest  # noqa: E402
from layers import CLIENT_THREAD_PREFIX  # noqa: E402
from model import model_metrics  # noqa: E402
from ops import SHAPES, connection_ops, preload_records, read_queries  # noqa: E402

worker.import_program()


def smoke(name: str):
    """A workload shrunk to test size (same traffic mix, small file load)."""
    return dataclasses.replace(SHAPES[name], preload=512, warmup_ops=4)


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_op_streams_repeat_per_seed(name):
    shape = SHAPES[name]
    first = list(islice(connection_ops(shape, 7, 1), 300))
    assert first == list(islice(connection_ops(shape, 7, 1), 300))
    assert first != list(islice(connection_ops(shape, 8, 1), 300))
    assert first != list(islice(connection_ops(shape, 7, 0), 300))
    assert preload_records(shape, 7)[:50] == preload_records(shape, 7)[:50]


def _captured_run(shape, seed):
    """Run a frame-capped sample, capturing each client's request bytes."""
    from repro.gateway import protocol

    frames: dict[str, list[bytes]] = {}
    lock = threading.Lock()
    original = protocol.encode_frame

    def capture(payload):
        frame = original(payload)
        name = threading.current_thread().name
        if name.startswith(CLIENT_THREAD_PREFIX):
            with lock:
                frames.setdefault(name, []).append(frame)
        return frame

    protocol.encode_frame = capture
    try:
        report = worker.run_workload(shape, seed, 60.0, max_frames=15)
    finally:
        protocol.encode_frame = original
    return report, frames


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_same_seed_gives_identical_frames_and_counts(name):
    shape = smoke(name)
    first, first_frames = _captured_run(shape, 5)
    second, second_frames = _captured_run(shape, 5)
    assert first_frames == second_frames
    assert len(first_frames) == worker.CONNECTIONS
    for key in ("attempted", "read_frames", "write_frames", "read_queries"):
        assert first[key] == second[key]
    assert first["attempted"] == 15 * worker.CONNECTIONS
    queries = read_queries(shape, 5, 32, worker.CONNECTIONS)
    assert model_metrics(shape.fields, shape.devices, queries) == model_metrics(
        shape.fields, shape.devices, read_queries(shape, 5, 32, worker.CONNECTIONS)
    )


def test_model_metrics_hold_the_fx_bound():
    shape = SHAPES["point_mix"]
    queries = read_queries(shape, 1, 64, 2)
    metrics = model_metrics(shape.fields, shape.devices, queries)
    assert len(queries) == 128
    assert metrics["model.load_factor"] >= 1.0
    assert 0.0 <= metrics["model.strict_optimal_ratio"] <= 1.0
    assert metrics["model.response_ms"] > 0.0


# ----------------------------------------------------------------------
# The checker against LoadReport.verify()
# ----------------------------------------------------------------------
def _small_load():
    from repro.api import make_service
    from repro.service.loadgen import LoadGenerator, LoadSpec

    service = make_service("fx", fields=(8, 8), devices=4)
    spec = LoadSpec(
        clients=3, requests_per_client=40, seed=2, write_every=3,
        hot_fraction=0.4,
    )
    return service, LoadGenerator(service, spec).run()


def _served(report):
    reads = [
        (
            tuple(sorted(request.query.specified_items())),
            records_digest(request.result.records),
            request.result.write_version,
            request.result.submit_version,
        )
        for request in report.requests
    ]
    return reads, list(report.writes)


def _verify_flags(service, report) -> set[int]:
    """Indices of the requests LoadReport.verify() flags."""
    flagged = set()
    for message in report.verify(service.file.multikey_hash):
        client, index = message.split()[1], message.split()[2].lstrip("#")
        for position, request in enumerate(report.requests):
            if (str(request.client), str(request.index)) == (client, index):
                flagged.add(position)
    return flagged


def test_checker_agrees_with_load_report_verify_on_a_clean_run():
    service, report = _small_load()
    reads, writes = _served(report)
    assert report.verify(service.file.multikey_hash) == []
    assert check_reads((8, 8), 4, writes, reads) == []


def test_checker_flags_a_wrong_read_like_verify():
    service, report = _small_load()
    victim = next(
        i for i, r in enumerate(report.requests) if len(r.result.records) > 1
    )
    report.requests[victim].result.records.pop()
    reads, writes = _served(report)
    flagged = {index for index, __ in check_reads((8, 8), 4, writes, reads)}
    assert flagged == {victim} == _verify_flags(service, report)


def test_checker_flags_a_stale_read_like_verify():
    from repro.query.partial_match import PartialMatchQuery
    from repro.storage.executor import QueryExecutor
    from repro.storage.parallel_file import PartitionedFile
    from repro.api import make_method

    service, report = _small_load()
    writes = sorted(report.writes)
    # Serve a query from an old snapshot although it was submitted after a
    # write that changed its answer: correct at its version, but stale.
    later_version, record = writes[-1]
    bucket = service.file.multikey_hash.bucket_of(record)
    victim = 0
    request = report.requests[victim]
    request.query = PartialMatchQuery.from_dict(
        service.file.filesystem, {0: bucket[0]}
    )
    old = PartitionedFile(make_method("fx", fields=(8, 8), devices=4))
    for __, earlier in writes[:-1]:
        old.insert(earlier)
    request.result.records = QueryExecutor(old).execute(request.query).records
    request.result.write_version = later_version - 1
    request.result.submit_version = later_version
    reads, writes = _served(report)
    found = check_reads((8, 8), 4, writes, reads)
    assert [index for index, __ in found] == [victim]
    assert "STALE" in found[0][1]
    assert _verify_flags(service, report) == {victim}


def test_checker_rejects_a_gap_in_the_write_log():
    reads = [(((0, 1),), (0, 0), 0, 0)]
    found = check_reads((8, 8), 4, [(1, (1, 2)), (3, (2, 3))], reads)
    assert found and found[0][0] == -1


def test_checker_reports_a_submit_version_beyond_the_log():
    # The last applied insert's ack was lost: a read saw its version, but
    # the log the client kept ends one write earlier.
    writes = [(1, (1, 2)), (2, (2, 3))]
    reads = [(((0, 1),), (0, 0), 0, 0), (((0, 1),), (0, 0), 2, 3)]
    found = check_reads((8, 8), 4, writes, reads)
    assert [index for index, __ in found] == [1]
    assert "submit_version 3" in found[0][1]


# ----------------------------------------------------------------------
# Smoke runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_each_workload_completes_at_smoke_size(name):
    report = worker.run_workload(smoke(name), 3, 0.5, trace=True)
    assert report["problems"] == [] and report.get("recovery_problems", []) == []
    assert report["mismatches"] == 0 and report["failed"] == 0
    assert report["attempted"] > 0 and report["checked_reads"] > 0
    layers = report["layers"]
    assert set(run.PER_LAYER) - set(layers) <= {
        "trace.overhead_ratio", "untraced.write_p50_ms", "untraced.write_p99_ms",
        "untraced.recover_s", "untraced.error_rate",
    }
    # The bypasses each workload is built to show.
    if name == "point_mix":
        assert layers["engine.fetches"] == 0 and layers["engine.plan_us"] == 0
        assert layers["core.plan_calls"] > 0
    else:
        assert layers["core.plan_calls"] == 0 and layers["core.plan_us"] == 0
        assert layers["engine.fetches"] > 0
    if name == "durable_mix":
        assert layers["durability.wal_appends"] > 0
        assert report["recover_s"] > 0
    else:
        assert layers["durability.wal_appends"] == 0


def _fake_sample(reads_ms, wall_s=1.0):
    return {
        "setup_s": 0.5,
        "metrics": {"query_qps": len(reads_ms) / wall_s, "peak_rss_mb": 10.0},
        "latencies_ms": {"read": reads_ms, "write": []},
        "queries": len(reads_ms),
        "wall_s": wall_s,
        "probe_s": {"setup": run.REFERENCE_PROBE_S, "window": run.REFERENCE_PROBE_S},
        "failed": 0,
        "attempted": len(reads_ms),
    }


def _fake_run(monkeypatch, measured):
    reports = iter(measured)
    monkeypatch.setattr(run, "sample", lambda *args: next(reports))
    return run.end_to_end("point_mix", 1, 4.0)


def test_end_to_end_pools_every_frame_and_flags_a_short_tail(monkeypatch):
    assert run.MEASURED_SAMPLES == 3
    # A tail confined to one sample still sets the run's p99: 20 slow
    # frames of 1200 lie beyond rank 1188.
    got = _fake_run(monkeypatch, [
        _fake_sample([1.0] * 400),
        _fake_sample([1.0] * 380 + [50.0] * 20, wall_s=3.0),
        _fake_sample([2.0] * 400),
    ])
    assert got.metrics["read_p99_ms"] == 50.0
    assert got.metrics["read_p50_ms"] == 1.0
    assert got.metrics["query_qps"] == 1200 / 5.0
    assert got.samples["read_p99_ms"] == 1200
    assert got.problems == [] and got.processes == 3

    got = _fake_run(monkeypatch, [_fake_sample([1.0] * 300)] * 3)
    assert got.problems == ["900 read frames: a p99 needs 1000"]


def test_end_to_end_scales_times_to_the_reference_cpu(monkeypatch):
    # Samples on a CPU running the probe at half the reference speed.
    slow = dict(_fake_sample([2.0] * 400, wall_s=2.0), setup_s=1.0)
    slow["probe_s"] = {"setup": 2 * run.REFERENCE_PROBE_S,
                       "window": 2 * run.REFERENCE_PROBE_S}
    got = _fake_run(monkeypatch, [slow] * 3)
    assert got.metrics["read_p50_ms"] == 1.0
    assert got.metrics["query_qps"] == 1200 / 3.0
    assert got.metrics["setup_s"] == 0.5
    assert got.shown["unscaled.read_p50_ms"] == 2.0
    assert got.shown["unscaled.query_qps"] == 1200 / 6.0


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(SHAPES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_run_fails_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "point_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
