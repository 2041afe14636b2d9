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

Four implementations share that algebra:

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
  a sorted solve-field lookup;
* :func:`separable_qualified_flat_batch` — the batch engine's kernel:
  each pattern solved once per method (a :class:`PatternPlan`, kept
  within a byte budget) and translated to each query by its fold.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
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
    "PATTERN_PLAN_BUDGET",
    "PatternPlan",
    "PatternSolver",
    "separable_qualified_on_device",
    "separable_qualified_on_device_array",
    "separable_qualified_flat_batch",
    "pattern_plan",
    "bucket_strides",
    "contribution_index",
]

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


def _pre_images(
    method: "SeparableMethod", solve_field: int, needed: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Invert the solve field for every cell of *needed* (the solve
    field's needed contribution per cell) with two gathers through its
    pre-image offset table.

    Returns, per output bucket, its cell and its solve value — a cell's
    pre-images in ascending value order, like the iterator — and each
    cell's pre-image count (several, or none, for non-injective tables).
    """
    order, starts = _solve_lookup(method, solve_field)
    start = starts[needed]
    counts = starts[needed + 1] - start
    cell = np.repeat(np.arange(needed.size, dtype=np.int64), counts)
    # ``within`` ranks each output inside its cell's pre-image group.
    within = np.arange(cell.size, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return cell, order[np.repeat(start, counts) + within], counts


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

    # Steps 2 and 3: invert the solve field for the whole enumeration;
    # ``combo`` maps output rows back to enumeration indices.
    combo, solve_values, __ = _pre_images(method, solve_field, needed)
    total = combo.size

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


#: Byte budget of the pattern plans one method keeps (each plan's arrays;
#: least recently used plans go first, and a plan larger than the whole
#: budget is used once and not kept).
PATTERN_PLAN_BUDGET = 16 << 20

#: Guards every method's plan cache; held only for dictionary updates.
_PLANS_LOCK = threading.Lock()


class PatternPlan:
    """One pattern's qualified buckets on every device, solved once.

    A query's specified fields only add a constant ``c`` (their folded
    contributions) to the device address of every bucket it qualifies,
    and a constant prefix to its flat address.  So the plan is solved for
    ``c = 0`` with the specified fields at 0: ``flat[starts[e]:starts[e +
    1]]`` holds the unspecified part of the flat address of every bucket
    that solve puts on device *e*, in the reference iterator's order.
    A query of the pattern finds its buckets on device ``d`` on device
    ``d ⊕ c`` (xor methods) or ``(d − c) mod M`` (add methods) of the
    plan, each shifted by its specified prefix.

    ``specified`` holds ``(field, contribution table, stride)`` for each
    specified field: what folding a query's ``c`` and prefix takes.
    ``nbytes`` counts the plan's arrays, what :data:`PATTERN_PLAN_BUDGET`
    bounds.
    """

    __slots__ = ("flat", "counts", "starts", "specified", "nbytes")

    def __init__(
        self,
        method: "SeparableMethod",
        pattern: frozenset[int],
        strides: np.ndarray,
    ):
        fs = method.filesystem
        m = fs.m
        self.specified = tuple(
            (i, method.contribution_table(i), int(strides[i]))
            for i in range(fs.n_fields)
            if i not in pattern
        )
        if not pattern:
            # Exact match: the one bucket sits on device c.
            flat = np.zeros(1, dtype=np.int64)
            counts = np.zeros(m, dtype=np.int64)
            counts[0] = 1
        else:
            unspecified = sorted(pattern)
            solve_field = max(unspecified, key=lambda i: fs.field_sizes[i])
            enumerate_fields = [i for i in unspecified if i != solve_field]
            xor = method.combine == "xor"

            # Enumeration fold and flat offsets, row-major like the
            # iterator.
            acc = np.zeros(1, dtype=np.int64)
            enum_flat = np.zeros(1, dtype=np.int64)
            for i in enumerate_fields:
                table = method.contribution_array(i)
                offsets = np.arange(fs.field_sizes[i], dtype=np.int64)
                offsets *= strides[i]
                if xor:
                    acc = (acc[:, None] ^ table[None, :]).ravel()
                else:
                    acc = (acc[:, None] + table[None, :]).ravel()
                enum_flat = (enum_flat[:, None] + offsets[None, :]).ravel()

            # The solve field's needed contribution for every (device,
            # combination) cell.
            devices = np.arange(m, dtype=np.int64)
            if xor:
                needed = devices[:, None] ^ acc[None, :]
            else:
                needed = (devices[:, None] - acc[None, :]) % m
            cell, solve_values, cell_counts = _pre_images(
                method, solve_field, needed.ravel()
            )
            flat = (
                enum_flat[cell % acc.size]
                + solve_values * strides[solve_field]
            )
            counts = cell_counts.reshape(m, acc.size).sum(axis=1)
        self.flat = flat
        self.counts = counts
        self.starts = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(counts))
        )
        self.nbytes = flat.nbytes + counts.nbytes + self.starts.nbytes


class _PlanCache(OrderedDict):
    """One method's pattern plans, least recently used first, and the
    bytes they hold."""

    nbytes = 0


def pattern_plan(
    method: "SeparableMethod", pattern: frozenset[int], strides: np.ndarray
) -> PatternPlan:
    """*pattern*'s :class:`PatternPlan`, built once per method and strides.

    Kept on the method like the single-query solvers, but bounded: the
    plans one method keeps hold at most :data:`PATTERN_PLAN_BUDGET` bytes.
    Threads racing on a new pattern may each build its plan; every build
    is the same, and the first one kept wins.
    """
    key = (pattern, strides.tobytes())
    with _PLANS_LOCK:
        cache = method.__dict__.get("_pattern_plans")
        if cache is None:
            cache = method.__dict__["_pattern_plans"] = _PlanCache()
        plan = cache.get(key)
        if plan is not None:
            cache.move_to_end(key)
            return plan
    plan = PatternPlan(method, pattern, strides)
    budget = PATTERN_PLAN_BUDGET
    if plan.nbytes <= budget:
        with _PLANS_LOCK:
            if key not in cache:
                cache[key] = plan
                cache.nbytes += plan.nbytes
                while cache.nbytes > budget:
                    __, evicted = cache.popitem(last=False)
                    cache.nbytes -= evicted.nbytes
    return plan


def separable_qualified_flat_batch(
    method: "SeparableMethod",
    queries: "Sequence[PartialMatchQuery]",
    strides: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Qualified buckets of a batch of queries on every device, one pass.

    Returns ``(flat, counts)`` where ``counts[g, d]`` is the number of
    qualified buckets of query *g* on device *d*, and ``flat`` holds every
    qualified bucket as a row-major flat address (see
    :func:`bucket_strides`), ordered by ``(query, device, enumeration
    combination, solve pre-image rank)``.  Within each ``(query, device)``
    slice that is exactly the order :func:`separable_qualified_on_device`
    yields — decode ``flat`` with the strides and you get the iterator's
    buckets bit-identically.  The queries may mix patterns.

    A query folds only its specified values; its slices are its
    pattern's :class:`PatternPlan` (see :func:`pattern_plan`) relabelled
    by that fold, and one gather builds ``flat`` for the whole batch.

    Throughput lands on the ``inverse_batch`` perf counter (buckets/sec).
    """
    started = _now()
    m = method.filesystem.m
    xor = method.combine == "xor"
    by_pattern: dict[frozenset[int], int] = {}
    plans: list[PatternPlan] = []
    which: list[int] = []
    folds: list[int] = []
    prefixes: list[int] = []
    for query in queries:
        index = by_pattern.get(query.pattern)
        if index is None:
            index = by_pattern[query.pattern] = len(plans)
            plans.append(pattern_plan(method, query.pattern, strides))
        values = query.values
        fold = prefix = 0
        for i, table, stride in plans[index].specified:
            value = values[i]
            fold = fold ^ table[value] if xor else fold + table[value]
            prefix += value * stride
        which.append(index)
        folds.append(fold)
        prefixes.append(prefix)
    if not plans:
        default_registry().record_perf_work(
            "inverse_batch", 0, _now() - started
        )
        return (
            np.empty(0, dtype=np.int64),
            np.empty((0, m), dtype=np.int64),
        )

    # The plan device each (query, device) cell reads.
    devices = np.arange(m, dtype=np.int64)
    c = np.asarray(folds, dtype=np.int64)[:, None]
    source = devices ^ c if xor else (devices - c) % m
    # Every plan's buckets in one pool; table row r is plans[r]'s.
    pool = np.concatenate([plan.flat for plan in plans])
    offsets = np.cumsum([0] + [plan.flat.size for plan in plans])
    row = np.asarray(which, dtype=np.int64)[:, None]
    starts = np.stack([plan.starts[:-1] for plan in plans])[row, source]
    starts += offsets[row]
    counts = np.stack([plan.counts for plan in plans])[row, source]
    lengths = counts.ravel()
    ends = np.cumsum(lengths)
    total = int(ends[-1])
    # Concatenate every cell's run of ``pool``: position p of cell k reads
    # ``pool[starts[k] + p - (ends[k] - lengths[k])]``.
    gather = np.repeat(starts.ravel() - (ends - lengths), lengths)
    gather += np.arange(total, dtype=np.int64)
    flat = pool[gather]
    flat += np.repeat(np.asarray(prefixes, dtype=np.int64), counts.sum(axis=1))
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
