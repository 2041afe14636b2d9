"""Correctness check of a run: one replay of the write log, serial oracle.

:func:`check_reads` keeps the full strength of the serving tier's
serial-replay verification (every ok read equals a serial evaluation at
its ``write_version``; a read whose ``write_version`` predates its
``submit_version`` must also equal the state at ``submit_version``) but
replays the write log *once*, in version order, into a fresh file, and
answers each read with the serial :class:`~repro.storage.executor.QueryExecutor`
when the replay reaches the version the read needs.  An oracle answer is
reused for later reads of the same query until the replay writes a record
into a bucket that query matches.

:func:`check_idempotency` adds the exactly-once checks of a durable run.
"""

from __future__ import annotations

from collections import Counter, defaultdict

__all__ = ["records_digest", "check_reads", "check_idempotency"]


def records_digest(records) -> tuple[int, int]:
    """Order-independent digest of a multiset of records.

    Records are tuples of integers, whose hashes do not depend on the
    process's hash seed, so served and replayed answers compare by digest
    without the run keeping every record it was served.
    """
    return len(records), sum(hash(tuple(record)) for record in records) & _MASK


_MASK = (1 << 64) - 1


def check_reads(
    fields: tuple[int, ...],
    devices: int,
    writes: list[tuple[int, tuple]],
    reads: list[tuple],
) -> list[tuple[int, str]]:
    """Replay *writes* (``(version, record)``) once and check every read.

    A read is one ok query result as the client decoded it, the tuple
    ``(specified, digest, write_version, submit_version)``: *specified* is
    the query's ``(field index, bucket coordinate)`` pairs sorted by field,
    *digest* the :func:`records_digest` of the served records.  (A tuple
    of integers and tuples of integers is dropped from the garbage
    collector's tracking: a run keeps tens of thousands of them and must
    not slow the program's own collections as it goes.)

    Returns ``(read index, message)`` for each mismatch; an empty list
    means every read was linearisable and none was stale.
    """
    from repro.api import make_method
    from repro.query.partial_match import PartialMatchQuery
    from repro.storage.executor import QueryExecutor
    from repro.storage.parallel_file import PartitionedFile

    ordered = sorted(writes)
    for position, (version, __) in enumerate(ordered):
        if version != position + 1:
            return [
                (-1, f"write log is not the contiguous version sequence: "
                     f"version {version} at position {position + 1}")
            ]
    file = PartitionedFile(make_method("fx", fields=fields, devices=devices))
    oracle = QueryExecutor(file)
    needs: dict[int, list[tuple[int, str]]] = defaultdict(list)
    mismatches: list[tuple[int, str]] = []
    for index, (__, __, write_version, submit_version) in enumerate(reads):
        outside = [
            f"{name} {version} outside the log's 0..{len(ordered)}"
            for name, version in (("write_version", write_version),
                                  ("submit_version", submit_version))
            if not 0 <= version <= len(ordered)
        ]
        if outside:
            mismatches.append((index, "; ".join(outside)))
            continue
        needs[write_version].append((index, "result"))
        if write_version < submit_version:
            needs[submit_version].append((index, "submit"))

    # Oracle answers stay valid until a write lands in a bucket the query
    # matches; a bucket is matched by exactly the 2**n queries that fix a
    # subset of its coordinates, so each write drops at most that many.
    answers: dict[tuple, tuple[int, int]] = {}
    field_subsets = [
        [i for i in range(len(fields)) if mask >> i & 1]
        for mask in range(1 << len(fields))
    ]
    applied = 0
    for version in sorted(needs):
        while applied < version:
            bucket = file.insert(ordered[applied][1])
            applied += 1
            for subset in field_subsets:
                answers.pop(tuple((i, bucket[i]) for i in subset), None)
        for index, kind in needs[version]:
            specified, digest, write_version, __ = reads[index]
            expected = answers.get(specified)
            if expected is None:
                query = PartialMatchQuery.from_dict(
                    file.filesystem, dict(specified)
                )
                expected = records_digest(oracle.execute(query).records)
                answers[specified] = expected
            if digest == expected:
                continue
            if kind == "result":
                mismatches.append(
                    (index, f"query {dict(specified)}: served {digest[0]} "
                            f"records != serial replay at version {version} "
                            f"({expected[0]} records)")
                )
            else:
                mismatches.append(
                    (index, f"query {dict(specified)}: STALE, result version "
                            f"{write_version} predates submit version "
                            f"{version} and the states differ")
                )
    mismatches.sort()
    return mismatches


def check_idempotency(wal_entries, acked: dict[str, int]) -> list[str]:
    """Each acknowledged idempotency key was applied exactly once, as the
    WAL entry of the version it was acknowledged at."""
    problems: list[str] = []
    logged = [
        (entry.meta or {}).get("idem")
        for entry in wal_entries
        if entry.op == "insert"
    ]
    for key, times in Counter(k for k in logged if k is not None).items():
        if times > 1:
            problems.append(f"idempotency key {key!r} applied {times} times")
    for key, version in sorted(acked.items()):
        if not 1 <= version <= len(logged) or logged[version - 1] != key:
            problems.append(
                f"acknowledged key {key!r} is not WAL entry {version}"
            )
    return problems
