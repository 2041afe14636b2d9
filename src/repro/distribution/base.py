"""Abstract interface for bucket-to-device distribution methods.

A *distribution method* (paper section 2) is a function
``FD : f_1 x ... x f_n -> Z_M``.  Concrete subclasses implement
:meth:`DistributionMethod.device_of`; everything else — distributing the whole
grid, computing a query's per-device response histogram, inverse mapping — is
derived, with naive but always-correct defaults that subclasses override with
structure-aware fast paths.

:class:`SeparableMethod` refines the interface for methods whose device
address is a fold of independent per-field contributions under a group
operation (XOR for FX, addition mod M for Modulo/GDM).  That structure is
what makes exact evaluation cheap: the per-device histogram of a query is the
group convolution of the unspecified fields' contribution histograms, and the
specified fields only translate it (see :mod:`repro.analysis.histograms`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterator
from typing import ClassVar

import numpy as np

from repro.errors import ConfigurationError, DistributionError
from repro.hashing.fields import Bucket, FileSystem
from repro.query.partial_match import PartialMatchQuery
from repro.util.numbers import ceil_div

__all__ = [
    "DistributionMethod",
    "SeparableMethod",
    "register_method",
    "create_method",
    "available_methods",
]


class DistributionMethod(ABC):
    """Maps every bucket of a file system to one of its ``M`` devices."""

    #: Registry key; subclasses set a short stable name ("fx", "modulo", ...).
    name: ClassVar[str] = ""

    #: True when a query's response-histogram *shape* depends only on which
    #: fields are unspecified, not on the specified values.  Lets evaluators
    #: collapse the sweep over specified-value combinations to one
    #: representative query per pattern.
    pattern_invariant: ClassVar[bool] = False

    def __init__(self, filesystem: FileSystem):
        self.filesystem = filesystem

    # ------------------------------------------------------------------
    # Core mapping
    # ------------------------------------------------------------------
    @abstractmethod
    def device_of(self, bucket: Bucket) -> int:
        """Device index in ``[0, M)`` for one bucket address."""

    def distribute(self) -> list[list[Bucket]]:
        """Materialise the full allocation: ``result[d]`` lists d's buckets.

        Enumerates the entire grid; intended for the small bucket spaces of
        examples, tests and the paper's tables.
        """
        allocation: list[list[Bucket]] = [[] for __ in range(self.filesystem.m)]
        for bucket in self.filesystem.buckets():
            allocation[self.device_of(bucket)].append(bucket)
        return allocation

    # ------------------------------------------------------------------
    # Query-level derived quantities
    # ------------------------------------------------------------------
    def response_histogram(self, query: PartialMatchQuery) -> list[int]:
        """Per-device counts of qualified buckets (``r_i(q)`` for each i).

        The naive implementation walks ``R(q)``; separable methods override
        this with the convolution engine.
        """
        self._check_query(query)
        counts = [0] * self.filesystem.m
        for bucket in query.qualified_buckets():
            counts[self.device_of(bucket)] += 1
        return counts

    def largest_response(self, query: PartialMatchQuery) -> int:
        """The paper's response-time proxy: ``max_i r_i(q)``."""
        return max(self.response_histogram(query))

    def is_strict_optimal_for(self, query: PartialMatchQuery) -> bool:
        """Empirical strict-optimality test: max load <= ceil(|R(q)|/M)."""
        bound = ceil_div(query.qualified_count, self.filesystem.m)
        return self.largest_response(query) <= bound

    # ------------------------------------------------------------------
    # Inverse mapping (section 5.2: each device finds its own buckets)
    # ------------------------------------------------------------------
    def qualified_on_device(
        self, device: int, query: PartialMatchQuery
    ) -> Iterator[Bucket]:
        """Enumerate the qualified buckets residing on *device*.

        Naive default filters ``R(q)``; FX / Modulo / GDM override with
        algebraic solvers (see :mod:`repro.core.inverse`).
        """
        self._check_device(device)
        self._check_query(query)
        for bucket in query.qualified_buckets():
            if self.device_of(bucket) == device:
                yield bucket

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _check_query(self, query: PartialMatchQuery) -> None:
        # Identity first: the usual query shares its method's file system,
        # and the dataclass comparison costs more than a one-bucket solve.
        if (
            query.filesystem is not self.filesystem
            and query.filesystem != self.filesystem
        ):
            raise DistributionError(
                "query was built for a different file system "
                f"({query.filesystem.describe()} vs {self.filesystem.describe()})"
            )

    def _check_device(self, device: int) -> None:
        if not 0 <= device < self.filesystem.m:
            raise DistributionError(
                f"device {device} outside [0, {self.filesystem.m})"
            )

    def describe(self) -> str:
        """Human-readable one-liner for reports."""
        return f"{self.name or type(self).__name__} on {self.filesystem.describe()}"


class SeparableMethod(DistributionMethod):
    """A method whose device address folds per-field contributions.

    ``device_of(bucket) == fold(combine, [contribution(i, J_i)])`` where
    ``combine`` is ``"xor"`` or ``"add"`` (mod M).  Both operations make
    ``Z_M`` an abelian group, which gives two structural gifts:

    * pattern invariance (specified fields act by translation), and
    * convolution-based exact histograms.
    """

    #: ``"xor"`` or ``"add"``; subclasses pick their group.
    combine: ClassVar[str] = ""

    pattern_invariant = True

    @abstractmethod
    def field_contribution(self, field_index: int, value: int) -> int:
        """The contribution of field *field_index* holding *value*, in Z_M."""

    def contribution_table(self, field_index: int) -> list[int]:
        """All contributions of one field, indexed by field value."""
        size = self.filesystem.field_sizes[field_index]
        return [self.field_contribution(field_index, v) for v in range(size)]

    def contribution_array(self, field_index: int) -> np.ndarray:
        """One field's contribution table as a cached read-only int64 array.

        Methods are immutable after construction, so the table is built at
        most once per field; every bulk path (:meth:`devices_of_array`,
        :meth:`qualified_on_device_array`, the convolution evaluator) shares
        these arrays instead of rebuilding them per call.
        """
        cache = self.__dict__.setdefault("_contribution_arrays", {})
        table = cache.get(field_index)
        if table is None:
            table = np.asarray(
                self.contribution_table(field_index), dtype=np.int64
            )
            table.setflags(write=False)
            cache[field_index] = table
        return table

    def device_of(self, bucket: Bucket) -> int:
        self.filesystem.check_bucket(bucket)
        m = self.filesystem.m
        if self.combine == "xor":
            address = 0
            for i, value in enumerate(bucket):
                address ^= self.field_contribution(i, value)
            return address & (m - 1)
        if self.combine == "add":
            address = 0
            for i, value in enumerate(bucket):
                address += self.field_contribution(i, value)
            return address % m
        raise ConfigurationError(
            f"{type(self).__name__}.combine must be 'xor' or 'add', "
            f"got {self.combine!r}"
        )

    def response_histogram(self, query: PartialMatchQuery) -> list[int]:
        """Exact histogram via group convolution (see DESIGN.md section 2)."""
        # Imported here: analysis depends on this module for the interface.
        from repro.analysis.histograms import separable_response_histogram

        self._check_query(query)
        return separable_response_histogram(self, query)

    def devices_of_array(self, buckets) -> np.ndarray:
        """Vectorised :meth:`device_of` for bulk loading.

        *buckets* is an ``(N, n_fields)`` integer array (or nested
        sequence); returns an ``N``-vector of device indices.  Orders of
        magnitude faster than a Python loop for large batches — see
        ``benchmarks/bench_bulk_assignment.py``.
        """
        buckets = np.asarray(buckets, dtype=np.int64)
        if buckets.ndim != 2 or buckets.shape[1] != self.filesystem.n_fields:
            raise DistributionError(
                f"expected an (N, {self.filesystem.n_fields}) bucket array, "
                f"got shape {buckets.shape}"
            )
        if buckets.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        sizes = self.filesystem.field_sizes
        for i, size in enumerate(sizes):
            column = buckets[:, i]
            if column.min() < 0 or column.max() >= size:
                raise DistributionError(
                    f"field {i} values outside [0, {size})"
                )
        m = self.filesystem.m
        devices = np.zeros(buckets.shape[0], dtype=np.int64)
        if self.combine == "xor":
            for i in range(self.filesystem.n_fields):
                devices ^= self.contribution_array(i)[buckets[:, i]]
            return devices & (m - 1)
        for i in range(self.filesystem.n_fields):
            devices += self.contribution_array(i)[buckets[:, i]]
        return devices % m

    def qualified_on_device(
        self, device: int, query: PartialMatchQuery
    ) -> Iterator[Bucket]:
        """Algebraic inverse mapping: solve the group equation per device.

        Overrides the naive scan-and-filter default with the
        output-sensitive solver, kept on the method per query pattern (a
        :class:`repro.core.inverse.PatternSolver`, at most ``2^n``), so the
        ``M`` calls of one query fold only its specified values.  Buckets
        and order are those of the reference iterator
        (:func:`repro.core.inverse.separable_qualified_on_device`), which
        the vectorised paths (:meth:`qualified_on_device_array`, the batch
        engine's kernel) reproduce bit-identically.  Threads racing on a
        new pattern may each build its solver; every build is the same.
        """
        self._check_device(device)
        self._check_query(query)
        solvers = self.__dict__.setdefault("_pattern_solvers", {})
        solver = solvers.get(query.pattern)
        if solver is None:
            from repro.core.inverse import PatternSolver

            solver = solvers[query.pattern] = PatternSolver(self, query.pattern)
        return solver.solve(device, query)

    def qualified_on_device_array(
        self, device: int, query: PartialMatchQuery
    ) -> np.ndarray:
        """Vectorised inverse mapping: *device*'s qualified buckets at once.

        Returns an ``(N, n_fields)`` int64 array whose rows are exactly the
        buckets :meth:`qualified_on_device` yields, in the same row-major
        order — the bulk fast path for query serving (see
        :func:`repro.core.inverse.separable_qualified_on_device_array`).
        """
        from repro.core.inverse import separable_qualified_on_device_array

        self._check_device(device)
        self._check_query(query)
        return separable_qualified_on_device_array(self, device, query)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, type[DistributionMethod]] = {}


def register_method(
    cls: type[DistributionMethod],
) -> type[DistributionMethod]:
    """Class decorator adding a method to the by-name registry.

    The class must define a non-empty, unique :attr:`DistributionMethod.name`.
    """
    if not cls.name:
        raise ConfigurationError(f"{cls.__name__} must define a registry name")
    if cls.name in _REGISTRY and _REGISTRY[cls.name] is not cls:
        raise ConfigurationError(f"method name {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls
    return cls


def create_method(
    name: str, filesystem: FileSystem, **kwargs: object
) -> DistributionMethod:
    """Instantiate a registered method by name.

    >>> fs = FileSystem.of(8, 8, m=4)
    >>> create_method("modulo", fs).name
    'modulo'
    """
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown distribution method {name!r}; "
            f"known: {sorted(_REGISTRY)}"
        ) from None
    return cls(filesystem, **kwargs)  # type: ignore[call-arg]


def available_methods() -> tuple[str, ...]:
    """Sorted names of every registered distribution method."""
    return tuple(sorted(_REGISTRY))
