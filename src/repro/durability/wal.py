"""Append-only write-ahead log with deterministic crash injection.

Every mutation of a :class:`~repro.durability.durable_file.DurableFile` is
framed into the log *before* it touches any device, so a crash at any
moment leaves a prefix of complete entries plus, at worst, one torn tail
frame.  The frame format is the classic one::

    <u32 payload length> <u32 CRC-32 of payload> <payload bytes>

with the payload a canonical JSON object (sorted keys, compact
separators).  :func:`read_wal` walks the frames: an incomplete or
CRC-failing *final* frame is the expected torn tail of a crash and is
discarded; a CRC failure *mid-log* means the log itself was corrupted and
raises :class:`~repro.errors.WalError` — recovery must not silently skip
interior entries.

Crashes are injected at record boundaries by :class:`CrashPoint` (armed
by ``make_durable_file(crash_after=)``, :meth:`DurableFile.arm_crash
<repro.durability.durable_file.DurableFile.arm_crash>` or the chaos
supervisor): the append that would write entry ``k`` raises
:class:`~repro.errors.SimulatedCrashError` instead, optionally leaving a
torn half-frame behind.  Because the boundary is data, not chance, tests
can sweep *every* boundary and assert recovery byte-identity at each one.
"""

from __future__ import annotations

import json
import struct
import zlib
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.errors import ConfigurationError, SimulatedCrashError, WalError

__all__ = ["WalEntry", "CrashPoint", "WriteAheadLog", "read_wal"]

_FRAME = struct.Struct("<II")
#: Operations a WAL entry may carry.  ``move`` entries are audit records
#: written by migrations; replay treats them as no-ops because placement is
#: derived from the distribution method, not from the log.
OPS = ("insert", "delete", "move")


@dataclass(frozen=True)
class WalEntry:
    """One logged mutation: an operation plus the record it applies to.

    Records must be sequences of JSON scalars (the field values the
    multi-key hash consumes); they round-trip the log as tuples.

    *meta* carries optional JSON-scalar annotations — today the
    gateway's client-stamped idempotency key (``{"idem": "..."}``), so
    exactly-once dedup state survives a crash by riding the same log the
    records do.  ``None`` serialises exactly as the pre-meta format, so
    existing golden WAL bytes are unchanged.
    """

    op: str
    record: tuple
    meta: Mapping[str, object] | None = None

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ConfigurationError(
                f"unknown WAL op {self.op!r}; known: {OPS}"
            )
        object.__setattr__(self, "record", tuple(self.record))
        if self.meta is not None:
            if not isinstance(self.meta, Mapping):
                raise ConfigurationError(
                    f"WAL entry meta must be a mapping, got {self.meta!r}"
                )
            object.__setattr__(self, "meta", dict(self.meta))

    def payload(self) -> bytes:
        """Canonical JSON payload bytes (sorted keys, compact separators)."""
        body: dict = {"op": self.op, "record": list(self.record)}
        if self.meta is not None:
            body["meta"] = self.meta
        return json.dumps(
            body, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")

    @classmethod
    def from_payload(cls, data: bytes) -> "WalEntry":
        """Parse one frame's payload; any damage raises
        :class:`~repro.errors.WalError`."""
        try:
            obj = json.loads(data)
        except ValueError as error:
            # JSONDecodeError, UnicodeDecodeError, and integers past the
            # interpreter's digit limit.
            raise WalError(f"WAL payload is not valid JSON: {error}") from None
        except RecursionError:
            raise WalError(
                "WAL payload nests deeper than the recursion limit"
            ) from None
        if (
            not isinstance(obj, dict)
            or not isinstance(obj.get("op"), str)
            or not isinstance(obj.get("record"), list)
            or not isinstance(obj.get("meta", {}), dict)
        ):
            raise WalError(f"malformed WAL payload: {obj!r}")
        try:
            return cls(obj["op"], tuple(obj["record"]), obj.get("meta"))
        except ConfigurationError as error:
            raise WalError(str(error)) from None

    def frame(self) -> bytes:
        payload = self.payload()
        return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


@dataclass(frozen=True)
class CrashPoint:
    """Crash deterministically at one WAL record boundary.

    The append of entry number *after_records* (0-based count of complete
    entries already in the log) raises instead of writing; with
    *torn_tail* the first half of the frame lands in the log first, the
    way a power cut mid-write would leave it.
    """

    after_records: int
    torn_tail: bool = False

    def __post_init__(self) -> None:
        if self.after_records < 0:
            raise ConfigurationError(
                f"crash boundary must be non-negative, got {self.after_records}"
            )


def read_wal(data: bytes) -> tuple[list[WalEntry], int]:
    """Parse WAL bytes into ``(complete entries, torn tail byte count)``.

    A truncated or CRC-failing final frame is the expected residue of a
    crash and is reported, not raised; damage anywhere else raises
    :class:`~repro.errors.WalError`.
    """
    entries: list[WalEntry] = []
    offset = 0
    total = len(data)
    while offset < total:
        if offset + _FRAME.size > total:
            return entries, total - offset
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        end = start + length
        if end > total:
            return entries, total - offset
        payload = bytes(data[start:end])
        if zlib.crc32(payload) != crc:
            if end == total:
                return entries, total - offset
            raise WalError(
                f"WAL frame at byte {offset} fails its CRC mid-log; "
                "the log is corrupted, not merely torn"
            )
        entries.append(WalEntry.from_payload(payload))
        offset = end
    return entries, 0


class WriteAheadLog:
    """Append-only framed log with optional deterministic crash injection.

    >>> wal = WriteAheadLog()
    >>> wal.append("insert", (1, 2))
    >>> wal.entry_count
    1
    >>> read_wal(wal.to_bytes())[0][0].record
    (1, 2)
    """

    def __init__(self, crash: CrashPoint | None = None):
        self._buffer = bytearray()
        self._count = 0
        self.crash = crash
        self._crashed = False
        #: Torn tail bytes dropped when this log was reopened from bytes.
        self.torn_bytes_discarded = 0

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(
        self,
        op: str,
        record: Sequence[object],
        meta: Mapping[str, object] | None = None,
    ) -> None:
        """Frame and append one entry; fires the crash point if armed."""
        entry = WalEntry(op, tuple(record), meta)
        if self._crashed:
            raise SimulatedCrashError(
                "write-ahead log already crashed; recover before writing"
            )
        if (
            self.crash is not None
            and self._count >= self.crash.after_records
        ):
            self._crashed = True
            if self.crash.torn_tail:
                frame = entry.frame()
                self._buffer += frame[: max(1, len(frame) // 2)]
            raise SimulatedCrashError(
                f"simulated crash at WAL record boundary {self._count}"
            )
        self._buffer += entry.frame()
        self._count += 1

    def append_insert(
        self,
        record: Sequence[object],
        meta: Mapping[str, object] | None = None,
    ) -> None:
        self.append("insert", record, meta)

    def append_delete(self, record: Sequence[object]) -> None:
        self.append("delete", record)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def entry_count(self) -> int:
        """Complete entries written (a torn tail is not an entry)."""
        return self._count

    @property
    def crashed(self) -> bool:
        return self._crashed

    @property
    def byte_size(self) -> int:
        return len(self._buffer)

    def to_bytes(self) -> bytes:
        return bytes(self._buffer)

    def scan(self) -> tuple[list[WalEntry], int]:
        """Parse the log: ``(complete entries, torn tail byte count)``."""
        return read_wal(bytes(self._buffer))

    def entries(self) -> list[WalEntry]:
        """The complete entries, torn tail (if any) discarded."""
        return self.scan()[0]

    @classmethod
    def from_bytes(cls, data: bytes) -> "WriteAheadLog":
        """Reopen a log from its serialised bytes (e.g. after a crash).

        A torn tail is truncated away — exactly what a journal reopen
        does — and its size recorded in :attr:`torn_bytes_discarded`, so
        further appends land after the last *complete* frame.
        """
        entries, torn = read_wal(data)
        wal = cls()
        wal._buffer = bytearray(data[: len(data) - torn])
        wal._count = len(entries)
        wal.torn_bytes_discarded = torn
        return wal

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WriteAheadLog(entries={self._count}, bytes={len(self._buffer)}"
            f"{', crashed' if self._crashed else ''})"
        )
