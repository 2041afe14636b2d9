"""Inverse mapping: enumerate a device's qualified buckets algebraically.

Section 5.2 of the paper stresses that each device must *find the qualified
buckets residing in it* quickly ("inverse mapping"), since a device only
holds a fraction of ``R(q)``.  For any separable method the device address is
a group fold of per-field contributions, so inverse mapping reduces to
solving one group equation: enumerate value choices for all unspecified
fields but one, then solve the remaining field's contribution for the target
device and invert it through a precomputed contribution index.

Cost: ``|R(q)| / F_s`` fold evaluations where ``F_s`` is the size of the
solved field — we always solve for the largest unspecified field, which for
an optimal distribution is within a constant factor of the per-device output
size, i.e. the enumeration is output-sensitive up to ``ceil`` effects.

Three implementations share that algebra:

* :func:`separable_qualified_on_device` — the reference iterator, one
  Python tuple at a time, kept as the correctness oracle: the serial
  executor plans through it directly;
* :class:`PatternSolver` — the same iteration with everything that depends
  only on the query's pattern prepared once per method; it serves
  :meth:`~repro.distribution.base.SeparableMethod.qualified_on_device`,
  the per-device read behind single-query cache misses;
* :func:`separable_qualified_on_device_array` — the array kernel,
  which materialises the same buckets (same row-major order, bit-identical)
  as one ``(N, n_fields)`` NumPy array via broadcasted fold enumeration and
  a sorted solve-field lookup.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.hashing.fields import Bucket
from repro.obs.clock import now as _now
from repro.obs.metrics import default_registry
from repro.query.partial_match import PartialMatchQuery

if TYPE_CHECKING:  # pragma: no cover - import for type checkers only
    from repro.distribution.base import SeparableMethod

__all__ = [
    "PatternSolver",
    "separable_qualified_on_device",
    "separable_qualified_on_device_array",
    "separable_qualified_flat_batch",
    "bucket_strides",
    "contribution_index",
]

#: Ceiling on the (queries x devices x combinations) working set one chunk
#: of the batched solver materialises; larger groups are processed in
#: query sub-chunks so peak memory stays bounded (~64 MB of int64).
_BATCH_CELL_LIMIT = 1 << 23


def bucket_strides(filesystem) -> np.ndarray:
    """Row-major strides flattening a bucket address to one int64.

    ``flat(bucket) = sum_i bucket[i] * strides[i]`` is a bijection onto
    ``[0, bucket_count)`` that preserves lexicographic order — the encoding
    every engine fast path shares so whole bucket sets can live in flat
    int64 arrays instead of tuples.
    """
    sizes = filesystem.field_sizes
    strides = np.empty(len(sizes), dtype=np.int64)
    stride = 1
    for i in range(len(sizes) - 1, -1, -1):
        strides[i] = stride
        stride *= sizes[i]
    return strides


def contribution_index(
    method: "SeparableMethod", field_index: int
) -> dict[int, list[int]]:
    """Map each contribution value of a field to the field values producing it.

    For injective transforms every list has length one; for an identity on a
    large field (``F >= M``) each contribution is produced by ``F / M``
    values.  Cached on the method instance — methods are immutable, and the
    inverse mapping solves the same field for every device of a query.
    """
    cache = method.__dict__.setdefault("_contribution_index_cache", {})
    index = cache.get(field_index)
    if index is None:
        index = {}
        for value, contribution in enumerate(
            method.contribution_table(field_index)
        ):
            index.setdefault(contribution, []).append(value)
        cache[field_index] = index
    return index


def _solve_lookup(
    method: "SeparableMethod", field_index: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted-contribution lookup of one field, cached on the method.

    Returns ``(order, starts)`` where ``order`` is the stable argsort of
    the contribution table and ``starts[c]`` is the offset in ``order`` of
    the first pre-image of contribution ``c`` (``starts`` has ``m + 1``
    entries, so ``starts[c + 1] - starts[c]`` counts them).  Contributions
    live in ``Z_M``, so inverting a batch of needed contributions is two
    table gathers — no per-batch ``searchsorted``.  Stability keeps the
    pre-images in ascending field-value order — the same order
    :func:`contribution_index` stores them in.
    """
    cache = method.__dict__.setdefault("_solve_lookup_cache", {})
    found = cache.get(field_index)
    if found is None:
        table = method.contribution_array(field_index)
        order = np.argsort(table, kind="stable")
        starts = np.searchsorted(
            table[order], np.arange(method.filesystem.m + 1, dtype=np.int64)
        )
        found = (order, starts)
        cache[field_index] = found
    return found


def separable_qualified_on_device(
    method: "SeparableMethod", device: int, query: PartialMatchQuery
) -> Iterator[Bucket]:
    """Yield the qualified buckets of *query* stored on *device*.

    Works for any :class:`~repro.distribution.base.SeparableMethod`
    (``combine`` is ``"xor"`` or ``"add"``).  Buckets are yielded in
    row-major order over the enumerated fields.
    """
    fs = method.filesystem
    m = fs.m
    unspecified = list(query.unspecified_fields)

    # Fold the specified fields' contributions once.
    partial = _fold(
        method,
        (method.field_contribution(i, v) for i, v in query.specified_items()),
    )

    if not unspecified:
        # Exact match: the single qualified bucket either is or is not here.
        # Contributions are in Z_M by contract, so both folds land in Z_M.
        if partial == device:
            yield tuple(v for v in query.values)  # type: ignore[misc]
        return

    # Solve for the largest unspecified field; enumerate the others.
    solve_field = max(unspecified, key=lambda i: fs.field_sizes[i])
    enumerate_fields = [i for i in unspecified if i != solve_field]
    solve_index = contribution_index(method, solve_field)
    tables = {i: method.contribution_table(i) for i in enumerate_fields}

    axes = [range(fs.field_sizes[i]) for i in enumerate_fields]
    for choice in itertools.product(*axes):
        acc = partial
        if method.combine == "xor":
            for i, value in zip(enumerate_fields, choice):
                acc ^= tables[i][value]
            needed = acc ^ device
        else:
            for i, value in zip(enumerate_fields, choice):
                acc += tables[i][value]
            needed = (device - acc) % m
        for solve_value in solve_index.get(needed, ()):
            yield _build_bucket(
                query, dict(zip(enumerate_fields, choice)), solve_field, solve_value
            )


class PatternSolver:
    """The per-device solve of one query pattern, prepared once per method.

    :func:`separable_qualified_on_device` re-derives on every call what
    depends only on which fields are unspecified: the solve field, its
    pre-images per contribution, and the other fields' contribution
    tables.  A solver holds those, so :meth:`solve` folds only the query's
    specified values and emits each bucket with one ``tuple()`` — the
    reference iterator's buckets, in its order.  It holds per-field
    tables, never the enumeration, and is immutable once built.
    """

    __slots__ = ("xor", "m", "specified", "solve_field", "solve_index",
                 "enumerated", "pairs")

    def __init__(self, method: "SeparableMethod", pattern: frozenset[int]):
        fs = method.filesystem
        self.xor = method.combine == "xor"
        self.m = fs.m
        self.specified = tuple(
            (i, method.contribution_table(i))
            for i in range(fs.n_fields)
            if i not in pattern
        )
        unspecified = sorted(pattern)
        # The reference iterator's choice: the first largest field.
        self.solve_field = max(
            unspecified, key=lambda i: fs.field_sizes[i], default=None
        )
        self.solve_index = (
            {} if self.solve_field is None
            else contribution_index(method, self.solve_field)
        )
        self.enumerated = tuple(i for i in unspecified if i != self.solve_field)
        #: Per enumerated field, its ``(value, contribution)`` pairs; their
        #: product is the iterator's row-major enumeration.
        self.pairs = tuple(
            tuple(enumerate(method.contribution_table(i)))
            for i in self.enumerated
        )

    def solve(self, device: int, query: PartialMatchQuery) -> Iterator[Bucket]:
        """Yield *query*'s qualified buckets on *device* (of this pattern)."""
        xor, m, index = self.xor, self.m, self.solve_index
        values = list(query.values)
        acc = 0
        for i, table in self.specified:
            acc = acc ^ table[values[i]] if xor else acc + table[values[i]]
        solve_field = self.solve_field
        if solve_field is None:  # exact match
            if acc % m == device:
                yield tuple(values)
            return
        if not self.enumerated:  # one unspecified field: solve it directly
            for solve_value in index.get(
                acc ^ device if xor else (device - acc) % m, ()
            ):
                values[solve_field] = solve_value
                yield tuple(values)
            return
        # Row-major like the reference: the last enumerated field varies
        # fastest, so it is the inner loop under the others' product.
        *outer, last = self.enumerated
        *outer_pairs, last_pairs = self.pairs
        for prefix in itertools.product(*outer_pairs):
            folded = acc
            for i, (value, contribution) in zip(outer, prefix):
                values[i] = value
                folded = folded ^ contribution if xor else folded + contribution
            for value, contribution in last_pairs:
                values[last] = value
                for solve_value in index.get(
                    folded ^ contribution ^ device if xor
                    else (device - folded - contribution) % m,
                    (),
                ):
                    values[solve_field] = solve_value
                    yield tuple(values)


def separable_qualified_on_device_array(
    method: "SeparableMethod", device: int, query: PartialMatchQuery
) -> np.ndarray:
    """All qualified buckets of *query* on *device* as an int64 array.

    Bit-identical to :func:`separable_qualified_on_device`: row *k* of the
    result equals the *k*-th bucket the iterator yields.  The algebra is the
    same — fold the specified contributions, enumerate every unspecified
    field but the largest, solve that one — but each step runs over the
    whole enumeration at once:

    1. the fold over enumerated fields is built by broadcasting each
       contribution table against the accumulator (row-major order falls
       out of ``ravel``),
    2. the solve-field equation is inverted for all combinations with
       gathers through the field's cached pre-image offset table, and
    3. variable pre-image counts (non-injective transforms) are expanded
       with ``repeat`` arithmetic instead of an inner Python loop.

    Throughput is recorded under the ``inverse_array`` perf counter
    (buckets/sec); see ``benchmarks/bench_vectorized_inverse.py``.
    """
    started = _now()
    fs = method.filesystem
    m = fs.m
    n = fs.n_fields
    unspecified = list(query.unspecified_fields)

    partial = _fold(
        method,
        (method.field_contribution(i, v) for i, v in query.specified_items()),
    )

    if not unspecified:
        if partial == device:
            out = np.asarray([query.values], dtype=np.int64)
        else:
            out = np.empty((0, n), dtype=np.int64)
        default_registry().record_perf_work(
            "inverse_array", out.shape[0], _now() - started
        )
        return out

    solve_field = max(unspecified, key=lambda i: fs.field_sizes[i])
    enumerate_fields = [i for i in unspecified if i != solve_field]

    # Step 1: folded contribution of every enumerated-field combination, in
    # the iterator's row-major order.
    acc = np.asarray([partial], dtype=np.int64)
    for i in enumerate_fields:
        table = method.contribution_array(i)
        if method.combine == "xor":
            acc = (acc[:, None] ^ table[None, :]).ravel()
        else:
            acc = (acc[:, None] + table[None, :]).ravel()
    if method.combine == "xor":
        needed = acc ^ device
    else:
        needed = (device - acc) % m

    # Step 2: invert the solve field for the whole batch.
    order, starts = _solve_lookup(method, solve_field)
    start = starts[needed]
    counts = starts[needed + 1] - start
    total = int(counts.sum())

    # Step 3: expand combinations with multiple (or zero) solve values.
    # ``combo`` maps output rows back to enumeration indices; ``within``
    # ranks each output row inside its combination's pre-image group.
    combo = np.repeat(np.arange(acc.shape[0], dtype=np.int64), counts)
    group_offsets = np.cumsum(counts) - counts
    within = np.arange(total, dtype=np.int64) - np.repeat(group_offsets, counts)
    solve_values = order[np.repeat(start, counts) + within]

    out = np.empty((total, n), dtype=np.int64)
    # Strides decode a flat enumeration index into per-field values
    # (row-major over ``enumerate_fields``, matching itertools.product).
    stride = 1
    strides: dict[int, int] = {}
    for i in reversed(enumerate_fields):
        strides[i] = stride
        stride *= fs.field_sizes[i]
    for i in range(n):
        value = query.values[i]
        if value is not None:
            out[:, i] = value
        elif i == solve_field:
            out[:, i] = solve_values
        else:
            out[:, i] = (combo // strides[i]) % fs.field_sizes[i]
    default_registry().record_perf_work(
        "inverse_array", total, _now() - started
    )
    return out


def separable_qualified_flat_batch(
    method: "SeparableMethod",
    queries: "Sequence[PartialMatchQuery]",
    strides: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Qualified buckets of a *pattern group* on every device, one pass.

    All *queries* must share one pattern (the same set of unspecified
    fields) — the engine's planner groups by pattern before calling in.
    Returns ``(flat, counts)`` where ``counts[g, d]`` is the number of
    qualified buckets of query *g* on device *d*, and ``flat`` holds every
    qualified bucket as a row-major flat address (see
    :func:`bucket_strides`), ordered by ``(query, device, enumeration
    combination, solve pre-image rank)``.  Within each ``(query, device)``
    slice that is exactly the order :func:`separable_qualified_on_device`
    yields — decode ``flat`` with the strides and you get the iterator's
    buckets bit-identically.

    The algebra generalises the single-(query, device) array path over two
    more axes: per-query specified folds are gathered through the
    contribution arrays, the enumeration fold is built once and shared by
    the whole group, and two gathers through the cached pre-image offset
    table invert the solve field for all ``G x M x E`` cells at once.  Groups whose working set exceeds
    ``_BATCH_CELL_LIMIT`` cells are processed in query sub-chunks so peak
    memory stays bounded (query-major output order is preserved).

    Throughput lands on the ``inverse_batch`` perf counter (buckets/sec).
    """
    started = _now()
    fs = method.filesystem
    m = fs.m
    n = fs.n_fields
    G = len(queries)
    if G == 0:
        default_registry().record_perf_work(
            "inverse_batch", 0, _now() - started
        )
        return (
            np.empty(0, dtype=np.int64),
            np.empty((0, m), dtype=np.int64),
        )

    pattern = queries[0].pattern
    specified = [i for i in range(n) if i not in pattern]
    xor = method.combine == "xor"

    # Per-query specified fold + flat prefix, vectorised across the group.
    folds = np.zeros(G, dtype=np.int64)
    spec_flat = np.zeros(G, dtype=np.int64)
    if specified:
        vals = np.asarray(
            [[query.values[i] for i in specified] for query in queries],
            dtype=np.int64,
        )
        spec_flat = vals @ strides[specified]
        for k, i in enumerate(specified):
            table = method.contribution_array(i)
            if xor:
                folds ^= table[vals[:, k]]
            else:
                folds += table[vals[:, k]]
        if not xor:
            folds %= m

    if not pattern:
        # Exact match: each query's single bucket sits on its fold device.
        counts = np.zeros((G, m), dtype=np.int64)
        counts[np.arange(G), folds] = 1
        default_registry().record_perf_work(
            "inverse_batch", G, _now() - started
        )
        return spec_flat, counts

    unspecified = sorted(pattern)
    solve_field = max(unspecified, key=lambda i: fs.field_sizes[i])
    enumerate_fields = [i for i in unspecified if i != solve_field]

    # Shared enumeration fold and flat offsets, row-major like the iterator.
    acc = np.zeros(1, dtype=np.int64)
    enum_flat = np.zeros(1, dtype=np.int64)
    for i in enumerate_fields:
        table = method.contribution_array(i)
        offsets = np.arange(fs.field_sizes[i], dtype=np.int64) * strides[i]
        if xor:
            acc = (acc[:, None] ^ table[None, :]).ravel()
        else:
            acc = (acc[:, None] + table[None, :]).ravel()
        enum_flat = (enum_flat[:, None] + offsets[None, :]).ravel()

    e_size = acc.shape[0]
    devices = np.arange(m, dtype=np.int64)
    order, starts = _solve_lookup(method, solve_field)
    solve_stride = int(strides[solve_field])

    chunk = max(1, _BATCH_CELL_LIMIT // (m * e_size))
    flat_parts: list[np.ndarray] = []
    count_parts: list[np.ndarray] = []
    total = 0
    for lo in range(0, G, chunk):
        hi = min(G, lo + chunk)
        if xor:
            needed = (
                folds[lo:hi, None, None]
                ^ devices[None, :, None]
                ^ acc[None, None, :]
            )
        else:
            needed = (
                devices[None, :, None]
                - folds[lo:hi, None, None]
                - acc[None, None, :]
            ) % m
        cells = needed.ravel()  # (query, device, combination) major order
        start = starts[cells]
        cell_counts = starts[cells + 1] - start
        part_total = int(cell_counts.sum())
        total += part_total

        cell = np.repeat(
            np.arange(cells.shape[0], dtype=np.int64), cell_counts
        )
        group_offsets = np.cumsum(cell_counts) - cell_counts
        within = np.arange(part_total, dtype=np.int64) - np.repeat(
            group_offsets, cell_counts
        )
        solve_values = order[np.repeat(start, cell_counts) + within]

        g_idx = cell // (m * e_size)
        e_idx = cell % e_size
        flat_parts.append(
            spec_flat[lo:hi][g_idx]
            + enum_flat[e_idx]
            + solve_values * solve_stride
        )
        count_parts.append(
            cell_counts.reshape(hi - lo, m, e_size).sum(axis=2)
        )

    flat = flat_parts[0] if len(flat_parts) == 1 else np.concatenate(flat_parts)
    counts = (
        count_parts[0] if len(count_parts) == 1 else np.concatenate(count_parts)
    )
    default_registry().record_perf_work(
        "inverse_batch", total, _now() - started
    )
    return flat, counts


def _fold(method: "SeparableMethod", contributions: Iterator[int]) -> int:
    """Fold contributions under the method's group operation."""
    if method.combine == "xor":
        acc = 0
        for c in contributions:
            acc ^= c
        return acc
    total = 0
    for c in contributions:
        total += c
    return total % method.filesystem.m


def _build_bucket(
    query: PartialMatchQuery,
    enumerated: dict[int, int],
    solve_field: int,
    solve_value: int,
) -> Bucket:
    """Assemble a full bucket address from the query plus solved values."""
    values = []
    for i, v in enumerate(query.values):
        if v is not None:
            values.append(v)
        elif i == solve_field:
            values.append(solve_value)
        else:
            values.append(enumerated[i])
    return tuple(values)
