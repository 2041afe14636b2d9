"""Partial match queries over a multi-key hashed file.

A partial match query specifies hashed values for a subset of the fields and
leaves the rest unspecified; every bucket agreeing on the specified
coordinates *qualifies* (the paper's ``R(q)``).  The distribution-quality
definitions (strict / k / perfect optimality) all quantify over these
queries.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property

from repro.errors import QueryError
from repro.hashing.fields import Bucket, FileSystem

__all__ = ["PartialMatchQuery"]

#: Marker for an unspecified field in the positional representation.
UNSPECIFIED = None


def _describe_values(values: tuple[int | None, ...]) -> str:
    """:meth:`PartialMatchQuery.describe` from the value tuple alone, so a
    span can keep the tuple and render the text when it is read."""
    cells = ["*" if v is None else str(v) for v in values]
    return "<" + ", ".join(cells) + ">"


@dataclass(frozen=True)
class PartialMatchQuery:
    """One partial match query: ``values[i]`` is ``None`` when unspecified.

    >>> fs = FileSystem.of(2, 8, m=4)
    >>> q = PartialMatchQuery.from_dict(fs, {0: 1})
    >>> q.num_unspecified, q.qualified_count
    (1, 8)
    """

    filesystem: FileSystem
    values: tuple[int | None, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.filesystem.n_fields:
            raise QueryError(
                f"query names {len(self.values)} fields, file system has "
                f"{self.filesystem.n_fields}"
            )
        for i, value in enumerate(self.values):
            if value is None:
                continue
            size = self.filesystem.field_sizes[i]
            if (
                not isinstance(value, int)
                or isinstance(value, bool)
                or not 0 <= value < size
            ):
                raise QueryError(
                    f"field {i} value {value!r} outside domain [0, {size})"
                )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(
        cls, filesystem: FileSystem, specified: Mapping[int, int]
    ) -> "PartialMatchQuery":
        """Build a query from ``{field_index: hashed_value}``."""
        values: list[int | None] = [UNSPECIFIED] * filesystem.n_fields
        for field_index, value in specified.items():
            if isinstance(field_index, bool) or not (
                0 <= field_index < filesystem.n_fields
            ):
                raise QueryError(f"no field {field_index}")
            values[field_index] = value
        return cls(filesystem, tuple(values))

    @classmethod
    def exact(cls, filesystem: FileSystem, bucket: Bucket) -> "PartialMatchQuery":
        """A fully specified (exact match) query for one bucket."""
        filesystem.check_bucket(bucket)
        return cls(filesystem, tuple(bucket))

    @classmethod
    def full_scan(cls, filesystem: FileSystem) -> "PartialMatchQuery":
        """The query with every field unspecified (retrieve the whole file)."""
        return cls(filesystem, (UNSPECIFIED,) * filesystem.n_fields)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def specified_fields(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.values) if v is not None)

    @cached_property
    def unspecified_fields(self) -> tuple[int, ...]:
        """The paper's ``q(f)``.

        Cached (the query is immutable): the batch engine touches this and
        the two properties below once per (query, device) cell, where the
        recomputed generator cost showed up in profiles.
        """
        return tuple(i for i, v in enumerate(self.values) if v is None)

    @property
    def num_unspecified(self) -> int:
        return sum(1 for v in self.values if v is None)

    @cached_property
    def pattern(self) -> frozenset[int]:
        """The set of unspecified field indices (drives optimality)."""
        return frozenset(self.unspecified_fields)

    @cached_property
    def qualified_count(self) -> int:
        """``|R(q)|``: product of the unspecified field sizes."""
        sizes = self.filesystem.field_sizes
        return math.prod(sizes[i] for i in self.unspecified_fields)

    def specified_items(self) -> Iterator[tuple[int, int]]:
        """Iterate ``(field_index, value)`` over the specified fields."""
        for i, value in enumerate(self.values):
            if value is not None:
                yield i, value

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def qualified_buckets(self) -> Iterator[Bucket]:
        """Enumerate ``R(q)``, the qualified bucket addresses.

        Row-major over the unspecified fields; the generator touches
        ``qualified_count`` tuples, so callers analysing large grids should
        prefer the convolution engine in :mod:`repro.analysis`.
        """
        sizes = self.filesystem.field_sizes
        axes = [
            range(sizes[i]) if value is None else (value,)
            for i, value in enumerate(self.values)
        ]
        return itertools.product(*axes)

    def matches(self, bucket: Bucket) -> bool:
        """Does *bucket* qualify for this query?"""
        self.filesystem.check_bucket(bucket)
        return all(
            value is None or value == coordinate
            for value, coordinate in zip(self.values, bucket)
        )

    def with_specified(self, field_index: int, value: int) -> "PartialMatchQuery":
        """Return a copy with one more field pinned to *value*."""
        new_values = list(self.values)
        new_values[field_index] = value
        return PartialMatchQuery(self.filesystem, tuple(new_values))

    def describe(self) -> str:
        """Compact rendering, e.g. ``<1, *, 3>``."""
        return _describe_values(self.values)
