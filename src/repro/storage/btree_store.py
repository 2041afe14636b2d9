"""B-tree-backed local bucket store.

Drop-in alternative to the hash-directory
:class:`~repro.storage.bucket_store.BucketStore`: bucket addresses are the
B-tree keys (tuples compare lexicographically), so a device additionally
supports ordered traversal and contiguous bucket-range scans — the ordered
"data construction" the authors pursue in the HCB_tree line [PrKi87].
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.hashing.fields import Bucket
from repro.storage.btree import BTree

__all__ = ["BTreeBucketStore"]


class BTreeBucketStore:
    """Bucket-to-records store ordered by bucket address.

    Implements the same interface as
    :class:`~repro.storage.bucket_store.BucketStore` plus
    :meth:`range_records`.
    """

    def __init__(self, t: int = 16):
        self._tree = BTree(t=t)

    # ------------------------------------------------------------------
    # BucketStore interface
    # ------------------------------------------------------------------
    def insert(self, bucket: Bucket, record: object) -> None:
        self._tree.insert(tuple(bucket), record)

    def delete(self, bucket: Bucket, record: object) -> bool:
        return self._tree.delete(tuple(bucket), record)

    def clear(self) -> None:
        self._tree = BTree(t=self._tree.t)

    def replace_bucket(self, bucket: Bucket, records: Iterable[object]) -> None:
        """Set the exact contents of *bucket* (the repair/rebuild path);
        empty *records* removes the key."""
        key = tuple(bucket)
        for record in self._tree.get(key):
            self._tree.delete(key, record)
        for record in records:
            self._tree.insert(key, record)

    def records_in(self, bucket: Bucket) -> tuple[object, ...]:
        return self._tree.get(tuple(bucket))

    def has_bucket(self, bucket: Bucket) -> bool:
        return tuple(bucket) in self._tree

    def buckets(self) -> Iterator[Bucket]:
        """Non-empty bucket addresses, in lexicographic order."""
        for key, __ in self._tree.items():
            yield key

    @property
    def record_count(self) -> int:
        return len(self._tree)

    @property
    def bucket_count(self) -> int:
        return self._tree.key_count

    def check_invariants(self) -> None:
        self._tree.check_invariants()

    # ------------------------------------------------------------------
    # Ordered extras
    # ------------------------------------------------------------------
    def range_records(
        self, low: Bucket, high: Bucket
    ) -> Iterator[tuple[Bucket, tuple[object, ...]]]:
        """``(bucket, records)`` for addresses with ``low <= b < high``.

        One contiguous scan instead of per-bucket probes — the payoff of
        ordered local construction when a query's qualified buckets form
        runs in address order.
        """
        yield from self._tree.range(tuple(low), tuple(high))

    @property
    def height(self) -> int:
        """Tree height (levels), for structural diagnostics."""
        return self._tree.height()
