"""Workload shapes and their seeded request streams.

Everything the program under test receives is generated here, from the
workload name and the seed alone, with :mod:`random` seeded by strings
(which :class:`random.Random` hashes with SHA-512, so streams are the same
in every process).  The generator deliberately does not use the program's
own workload helpers: a later change to those must not change the inputs
the benchmark feeds it.

Query payloads are ``{field index: hashed bucket coordinate}`` mappings,
the wire protocol's query space.  Which fields a query fixes follows a
low-discrepancy sequence over fixed proportions, so every seed sends the
same mix of query breadths and only the values differ; a seed that drew
more broad queries than another would otherwise measure a different
workload.  Records are tuples of integer attribute
values the gateway hashes itself.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate

__all__ = ["Shape", "SHAPES", "preload_records", "connection_ops", "read_queries"]


@dataclass(frozen=True)
class Shape:
    """One workload: the tenant's file, its preload and its traffic mix."""

    name: str
    fields: tuple[int, ...]
    devices: int
    #: Records inserted in-process before the first frame is sent.
    preload: int
    #: Queries fix each subset of ``k`` fields (``0 < k < n``) in proportion
    #: to ``p**k * (1 - p)**(n - k)``: as if each field were fixed with
    #: this probability, keeping only the non-trivial queries.
    spec_probability: float
    #: Stores verify a CRC on every bucket read.
    checksummed: bool = False
    #: Tenants are built with a write-ahead log, as a crash supervisor does.
    durable: bool = False
    #: Every k-th op of a connection is an insert (0 = read-only).
    write_every: int = 0
    #: Reads travel as ``batch`` frames of this many queries (inclusive).
    batch_range: tuple[int, int] | None = None
    #: Share of single-query reads drawn from a small shared hot pool.
    hot_fraction: float = 0.0
    hot_pool: int = 0
    #: Ops each connection sends untimed before the measured window.
    warmup_ops: int = 0


SHAPES: dict[str, Shape] = {
    shape.name: shape
    for shape in (
        Shape(
            name="point_mix",
            fields=(16, 16, 16),
            devices=16,
            preload=4096,
            spec_probability=0.85,
            write_every=4,
            hot_fraction=0.3,
            hot_pool=16,
            warmup_ops=200,
        ),
        Shape(
            name="batch_scan",
            fields=(32, 32, 16),
            devices=16,
            preload=16384,
            spec_probability=0.9,
            checksummed=True,
            batch_range=(6, 12),
            warmup_ops=8,
        ),
        Shape(
            name="durable_mix",
            fields=(32, 32, 16),
            devices=16,
            preload=4096,
            spec_probability=0.8,
            durable=True,
            write_every=2,
            batch_range=(4, 8),
            warmup_ops=8,
        ),
    )
}

#: Attribute values are drawn from this range before the gateway hashes them.
_VALUE_RANGE = 1 << 20


def preload_records(shape: Shape, seed: int) -> list[tuple[int, ...]]:
    """The records loaded before traffic starts, in insertion order."""
    rng = random.Random(f"perfbench-preload:{shape.name}:{seed}")
    return [_record(rng, shape) for __ in range(shape.preload)]


#: Step of the low-discrepancy sequence that picks query patterns.
_GOLDEN = (5 ** 0.5 - 1) / 2


class _Patterns:
    """The fields each next query fixes, in the shape's proportions.

    From *start*, a point in [0, 1), the golden-ratio sequence walks the
    patterns' cumulative shares, so any stretch of the stream holds each
    pattern in very nearly its share.
    """

    def __init__(self, shape: Shape, start: float) -> None:
        n, p = len(shape.fields), shape.spec_probability
        # Ordered by breadth, so the patterns of one breadth are one
        # interval of the sequence and their joint share is met as closely.
        self.subsets = sorted(
            (
                tuple(i for i in range(n) if mask >> i & 1)
                for mask in range(1, (1 << n) - 1)
            ),
            key=lambda subset: (len(subset), subset),
        )
        weights = [p ** len(s) * (1 - p) ** (n - len(s)) for s in self.subsets]
        self.bounds = list(accumulate(w / sum(weights) for w in weights))
        self.position = start

    def next(self) -> tuple[int, ...]:
        self.position = (self.position + _GOLDEN) % 1.0
        index = bisect(self.bounds, self.position)
        return self.subsets[min(index, len(self.subsets) - 1)]


def connection_ops(shape: Shape, seed: int, connection: int):
    """Endless op stream of one connection.

    Yields ``("query", specified)``, ``("batch", [specified, ...])`` and
    ``("insert", record, idem)`` tuples; *idem* is an idempotency key on
    durable workloads and ``None`` elsewhere.  Index ``k`` of the stream
    is a function of ``(shape, seed, connection, k)`` only.
    """
    rng = random.Random(f"perfbench-ops:{shape.name}:{seed}:{connection}")
    patterns = _Patterns(shape, rng.random())
    hot = _hot_pool(shape, seed)
    index = 0
    while True:
        index += 1
        if shape.write_every and index % shape.write_every == 0:
            idem = f"{seed}.{connection}.{index}" if shape.durable else None
            yield ("insert", _record(rng, shape), idem)
        elif shape.batch_range is not None:
            low, high = shape.batch_range
            size = rng.randint(low, high)
            yield ("batch", [_query(rng, shape, patterns) for __ in range(size)])
        elif hot and rng.random() < shape.hot_fraction:
            yield ("query", hot[rng.randrange(len(hot))])
        else:
            yield ("query", _query(rng, shape, patterns))


def read_queries(shape: Shape, seed: int, per_connection: int, connections: int):
    """The first *per_connection* read queries of each connection's stream.

    A fixed, timing-independent prefix of the op log: what the modelled
    (``model.*``) quantities are computed over, so they repeat exactly.
    """
    queries: list[dict[int, int]] = []
    for connection in range(connections):
        taken = 0
        for op in connection_ops(shape, seed, connection):
            if op[0] == "query":
                batch = [op[1]]
            elif op[0] == "batch":
                batch = op[1]
            else:
                continue
            for specified in batch:
                if taken == per_connection:
                    break
                queries.append(specified)
                taken += 1
            if taken == per_connection:
                break
    return queries


def _hot_pool(shape: Shape, seed: int) -> list[dict[int, int]]:
    rng = random.Random(f"perfbench-hot:{shape.name}:{seed}")
    # A pool this small would hold a seed-dependent share of broad queries
    # from a seeded start; from a fixed one, every seed's pool has the
    # same patterns.
    patterns = _Patterns(shape, 0.0)
    return [_query(rng, shape, patterns) for __ in range(shape.hot_pool)]


def _record(rng: random.Random, shape: Shape) -> tuple[int, ...]:
    return tuple(rng.randrange(_VALUE_RANGE) for __ in shape.fields)


def _query(rng: random.Random, shape: Shape, patterns: _Patterns) -> dict[int, int]:
    """A non-trivial partial match query: some, but not all, fields fixed."""
    return {index: rng.randrange(shape.fields[index]) for index in patterns.next()}
