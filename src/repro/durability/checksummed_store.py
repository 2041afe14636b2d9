"""A bucket store that detects silent corruption on every read.

:class:`ChecksummedBucketStore` keeps a CRC per bucket page alongside the
records and recomputes/compares it on every :meth:`records_in` — the read
path every executor goes through — raising
:class:`~repro.errors.CorruptPageError` the moment a page and its checksum
disagree.  Writes (insert/delete/replace) keep the checksum current, so a
mismatch can only mean the page changed *outside* the store interface:
exactly the silent-media-corruption model the scrubber repairs from the
chained replica.

:meth:`corrupt_bucket` is the deterministic injection hook: it mutates a
page the way failing media would — tampering a record in place or dropping
the page wholesale — without touching the checksum, so detection machinery
is exercised against honest damage.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.durability.checksum import page_checksum
from repro.errors import ConfigurationError, CorruptPageError, StorageError
from repro.hashing.fields import Bucket
from repro.storage.bucket_store import BucketStore

__all__ = ["ChecksummedBucketStore"]

#: The sentinel a "tamper" corruption writes over a record — distinctive in
#: test failures and impossible to collide with real field tuples.
TAMPERED_RECORD = ("#corrupt#",)


class ChecksummedBucketStore(BucketStore):
    """Bucket store with a CRC page checksum verified on every read.

    >>> store = ChecksummedBucketStore()
    >>> store.insert((0,), (1, "a"))
    >>> store.records_in((0,))
    ((1, 'a'),)
    >>> store.corrupt_bucket((0,))
    >>> store.verify_bucket((0,))
    False
    """

    def __init__(self) -> None:
        super().__init__()
        self._sums: dict[Bucket, int] = {}

    # ------------------------------------------------------------------
    # Mutation (checksums kept current)
    # ------------------------------------------------------------------
    def _resum(self, key: Bucket) -> None:
        records = self._buckets.get(key)
        if records:
            self._sums[key] = page_checksum(key, records)
        else:
            self._sums.pop(key, None)

    def insert(self, bucket: Bucket, record: object) -> None:
        super().insert(bucket, record)
        self._resum(tuple(bucket))

    def delete(self, bucket: Bucket, record: object) -> bool:
        removed = super().delete(bucket, record)
        if removed:
            self._resum(tuple(bucket))
        return removed

    def replace_bucket(self, bucket: Bucket, records: Iterable[object]) -> None:
        super().replace_bucket(bucket, records)
        self._resum(tuple(bucket))

    def clear(self) -> None:
        super().clear()
        self._sums.clear()

    # ------------------------------------------------------------------
    # Verified reads
    # ------------------------------------------------------------------
    def records_in(self, bucket: Bucket) -> tuple[object, ...]:
        """The page's records, verified against its checksum.

        Raises :class:`~repro.errors.CorruptPageError` when the page and
        its checksum disagree — including a present checksum with a missing
        page (the page was lost) and a present page with a missing checksum
        (the page appeared out of nowhere).
        """
        key = tuple(bucket)
        records = super().records_in(key)
        expected = self._sums.get(key)
        if expected is None:
            if records:
                raise CorruptPageError(
                    f"bucket {key}: page present but has no checksum"
                )
            return records
        if page_checksum(key, records) != expected:
            raise CorruptPageError(
                f"bucket {key}: page checksum mismatch "
                f"(stored {expected}, computed {page_checksum(key, records)})"
            )
        return records

    def verify_bucket(self, bucket: Bucket) -> bool:
        """Non-raising verification: does this page match its checksum?"""
        key = tuple(bucket)
        records = super().records_in(key)
        expected = self._sums.get(key)
        if expected is None:
            return not records
        return page_checksum(key, records) == expected

    def tracked_buckets(self) -> list[Bucket]:
        """Every bucket this store has data *or* a checksum for, sorted.

        A dropped page leaves its checksum behind, so the scrubber can
        still see that something should have been here.
        """
        return sorted(set(self._buckets) | set(self._sums))

    @property
    def checksum_count(self) -> int:
        return len(self._sums)

    # ------------------------------------------------------------------
    # Deterministic damage (fault injection)
    # ------------------------------------------------------------------
    def corrupt_bucket(self, bucket: Bucket, kind: str = "tamper") -> None:
        """Damage one page the way failing media would, bypassing checksums.

        ``"tamper"`` overwrites the page's first record in place;
        ``"drop"`` loses the page wholesale (its checksum survives, as
        real checksum metadata would on a different page).  Both leave the
        store detectably corrupt, never silently consistent.
        """
        key = tuple(bucket)
        records = self._buckets.get(key)
        if not records:
            raise StorageError(f"cannot corrupt absent bucket {key}")
        if kind == "tamper":
            records[0] = TAMPERED_RECORD
        elif kind == "drop":
            del self._buckets[key]
            self._record_count -= len(records)
        else:
            raise ConfigurationError(
                f"unknown corruption kind {kind!r}; use 'tamper' or 'drop'"
            )

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Count invariants plus a full checksum verification sweep."""
        super().check_invariants()
        for key in self.tracked_buckets():
            if not self.verify_bucket(key):
                raise CorruptPageError(
                    f"bucket {key} fails checksum verification"
                )
