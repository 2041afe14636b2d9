"""Per-device local bucket storage (the "data construction" stage).

The paper deliberately leaves local organisation open; this store is a plain
hash directory from bucket address to its records — the natural companion of
multi-key hashing — instrumented enough for the executor to account accesses.
Records are arbitrary immutable Python objects (tuples in the examples).
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator

from repro.errors import StorageError
from repro.hashing.fields import Bucket

__all__ = ["BucketStore", "content_digest"]


def content_digest(buckets: Iterable[tuple[Bucket, tuple]]) -> str:
    """Canonical SHA-256 over ``(bucket, records)`` pairs, sorted by bucket.

    Order-independent across buckets, order-preserving within one bucket —
    the digest two stores share exactly when they hold the same records in
    the same buckets, regardless of page layout or checksum metadata.
    Crash-recovery byte-identity tests compare these.
    """
    digest = hashlib.sha256()
    for bucket, records in sorted(buckets, key=lambda pair: pair[0]):
        digest.update(repr((tuple(bucket), tuple(records))).encode("utf-8"))
    return digest.hexdigest()


class BucketStore:
    """Maps bucket addresses to lists of records on one device."""

    def __init__(self) -> None:
        self._buckets: dict[Bucket, list[object]] = {}
        self._record_count = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, bucket: Bucket, record: object) -> None:
        """Append *record* to *bucket* (created on first use)."""
        self._buckets.setdefault(tuple(bucket), []).append(record)
        self._record_count += 1

    def delete(self, bucket: Bucket, record: object) -> bool:
        """Remove one occurrence of *record* from *bucket*.

        Returns ``True`` when a record was removed, ``False`` when it was
        not present.  Empty buckets are dropped so iteration stays tight.
        """
        key = tuple(bucket)
        records = self._buckets.get(key)
        if not records:
            return False
        try:
            records.remove(record)
        except ValueError:
            return False
        self._record_count -= 1
        if not records:
            del self._buckets[key]
        return True

    def clear(self) -> None:
        self._buckets.clear()
        self._record_count = 0

    def replace_bucket(self, bucket: Bucket, records: Iterable[object]) -> None:
        """Set the exact contents of *bucket* (the repair/rebuild path).

        An empty *records* removes the bucket entirely, keeping the
        no-empty-buckets invariant.
        """
        key = tuple(bucket)
        old = self._buckets.pop(key, ())
        self._record_count -= len(old)
        fresh = list(records)
        if fresh:
            self._buckets[key] = fresh
            self._record_count += len(fresh)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def records_in(self, bucket: Bucket) -> tuple[object, ...]:
        """Records of one bucket (empty tuple when the bucket is absent)."""
        return tuple(self._buckets.get(tuple(bucket), ()))

    def has_bucket(self, bucket: Bucket) -> bool:
        return tuple(bucket) in self._buckets

    def buckets(self) -> Iterator[Bucket]:
        """Iterate over the non-empty bucket addresses held here."""
        return iter(self._buckets)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def record_count(self) -> int:
        return self._record_count

    @property
    def bucket_count(self) -> int:
        """Number of non-empty buckets."""
        return len(self._buckets)

    def state_digest(self) -> str:
        """Canonical content digest of this store (see :func:`content_digest`)."""
        return content_digest(
            (bucket, tuple(records))
            for bucket, records in self._buckets.items()
        )

    def check_invariants(self) -> None:
        """Internal consistency check used by tests and failure injection."""
        actual = sum(len(records) for records in self._buckets.values())
        if actual != self._record_count:
            raise StorageError(
                f"record count drifted: cached {self._record_count}, "
                f"actual {actual}"
            )
        if any(not records for records in self._buckets.values()):
            raise StorageError("empty bucket left behind after delete")
