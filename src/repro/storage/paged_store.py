"""Page-structured local bucket storage with overflow chains.

The hash-directory store counts *buckets*; real 1980s devices charged by
*pages*.  In the multi-directory hashing line the paper builds on [PrDa86],
each bucket owns a primary page and a chain of overflow pages; retrieval
cost is the chain length, and deletions leave holes until a compaction run.
This store models exactly that, so device service times can be priced in
page reads rather than bucket touches.

Interface-compatible with :class:`~repro.storage.bucket_store.BucketStore`
plus page-level accounting (:meth:`pages_in`, :attr:`page_count`,
:meth:`average_chain_length`, :meth:`compact`).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.errors import ConfigurationError, StorageError
from repro.hashing.fields import Bucket
from repro.storage.bucket_store import content_digest

__all__ = ["PagedBucketStore"]


class _Chain:
    """One bucket's page chain: a list of fixed-capacity pages."""

    __slots__ = ("pages",)

    def __init__(self) -> None:
        self.pages: list[list[object]] = []

    def record_count(self) -> int:
        return sum(len(page) for page in self.pages)


class PagedBucketStore:
    """Bucket-to-records store accounted in pages.

    >>> store = PagedBucketStore(page_capacity=2)
    >>> for i in range(5):
    ...     store.insert((0,), f"r{i}")
    >>> store.pages_in((0,))       # 5 records / 2 per page -> 3 pages
    3
    """

    def __init__(self, page_capacity: int = 4):
        if page_capacity < 1:
            raise ConfigurationError("page capacity must be at least 1")
        self.page_capacity = page_capacity
        self._chains: dict[Bucket, _Chain] = {}
        self._record_count = 0

    # ------------------------------------------------------------------
    # BucketStore interface
    # ------------------------------------------------------------------
    def insert(self, bucket: Bucket, record: object) -> None:
        """Append to the first page with room, else open an overflow page."""
        chain = self._chains.setdefault(tuple(bucket), _Chain())
        for page in chain.pages:
            if len(page) < self.page_capacity:
                page.append(record)
                break
        else:
            chain.pages.append([record])
        self._record_count += 1

    def delete(self, bucket: Bucket, record: object) -> bool:
        """Remove one occurrence; the hole persists until :meth:`compact`."""
        chain = self._chains.get(tuple(bucket))
        if chain is None:
            return False
        for page in chain.pages:
            try:
                page.remove(record)
            except ValueError:
                continue
            self._record_count -= 1
            if chain.record_count() == 0:
                del self._chains[tuple(bucket)]
            return True
        return False

    def clear(self) -> None:
        self._chains.clear()
        self._record_count = 0

    def replace_bucket(self, bucket: Bucket, records: Iterable[object]) -> None:
        """Set the exact contents of *bucket*, laid out densely (the
        repair/rebuild path); empty *records* removes the chain."""
        key = tuple(bucket)
        old = self._chains.pop(key, None)
        if old is not None:
            self._record_count -= old.record_count()
        fresh = list(records)
        if fresh:
            chain = _Chain()
            chain.pages = [
                fresh[i : i + self.page_capacity]
                for i in range(0, len(fresh), self.page_capacity)
            ]
            self._chains[key] = chain
            self._record_count += len(fresh)

    def records_in(self, bucket: Bucket) -> tuple[object, ...]:
        chain = self._chains.get(tuple(bucket))
        if chain is None:
            return ()
        records: list[object] = []
        for page in chain.pages:
            records.extend(page)
        return tuple(records)

    def has_bucket(self, bucket: Bucket) -> bool:
        return tuple(bucket) in self._chains

    def buckets(self) -> Iterator[Bucket]:
        return iter(self._chains)

    @property
    def record_count(self) -> int:
        return self._record_count

    @property
    def bucket_count(self) -> int:
        return len(self._chains)

    def state_digest(self) -> str:
        """Canonical content digest, independent of page layout (a compacted
        and an uncompacted chain holding the same records digest equal)."""
        return content_digest(
            (bucket, self.records_in(bucket)) for bucket in self._chains
        )

    def check_invariants(self) -> None:
        actual = sum(chain.record_count() for chain in self._chains.values())
        if actual != self._record_count:
            raise StorageError(
                f"record count drifted: cached {self._record_count}, "
                f"actual {actual}"
            )
        for bucket, chain in self._chains.items():
            if not chain.pages:
                raise StorageError(f"bucket {bucket} with an empty chain")
            if any(len(page) > self.page_capacity for page in chain.pages):
                raise StorageError(f"overfull page in bucket {bucket}")
            if chain.record_count() == 0:
                raise StorageError(f"empty chain left behind for {bucket}")

    # ------------------------------------------------------------------
    # Page accounting
    # ------------------------------------------------------------------
    def pages_in(self, bucket: Bucket) -> int:
        """Pages that must be read to retrieve one bucket (0 if absent)."""
        chain = self._chains.get(tuple(bucket))
        return len(chain.pages) if chain else 0

    @property
    def page_count(self) -> int:
        """Total pages allocated on this store."""
        return sum(len(chain.pages) for chain in self._chains.values())

    def average_chain_length(self) -> float:
        """Mean pages per non-empty bucket (1.0 = no overflow anywhere)."""
        if not self._chains:
            return 0.0
        return self.page_count / len(self._chains)

    def occupancy(self) -> float:
        """Fraction of allocated page slots actually holding records."""
        pages = self.page_count
        if pages == 0:
            return 0.0
        return self._record_count / (pages * self.page_capacity)

    def compact(self) -> int:
        """Repack every chain densely; returns the number of pages freed.

        The maintenance operation that undoes deletion holes: records are
        re-laid into the minimum number of pages, preserving order.
        """
        freed = 0
        for chain in self._chains.values():
            records: list[object] = []
            for page in chain.pages:
                records.extend(page)
            new_pages = [
                records[i : i + self.page_capacity]
                for i in range(0, len(records), self.page_capacity)
            ]
            freed += len(chain.pages) - len(new_pages)
            chain.pages = new_pages
        return freed
