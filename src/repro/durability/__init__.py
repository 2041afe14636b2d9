"""Durability and self-healing: the layer that survives real failures.

:mod:`repro.runtime` masks *transient* faults (retries, failover); this
package closes the loop on the *persistent* ones the declustering
literature spreads data across devices to survive:

* :mod:`repro.durability.checksum` — canonical record encoding and CRC
  page checksums,
* :mod:`repro.durability.checksummed_store` —
  :class:`ChecksummedBucketStore`, a bucket store that verifies every
  read and detects silent corruption
  (:class:`~repro.errors.CorruptPageError`),
* :mod:`repro.durability.wal` — an append-only :class:`WriteAheadLog`
  with deterministic crash injection (:class:`CrashPoint`) at any record
  boundary and torn-tail detection,
* :mod:`repro.durability.durable_file` — :class:`DurableFile` (WAL in
  front of a partitioned/replicated file) and :func:`recover`, the replay
  that restores a crashed file to a state byte-identical to the
  fault-free run,
* :mod:`repro.durability.scrubber` — :class:`Scrubber`, the background
  sweep that detects corrupt/missing pages and repairs them from the
  chained replica,
* :mod:`repro.durability.rebuild` — :class:`DeviceRebuilder`, permanent
  device loss handled by reconstructing the lost buckets from replicas
  and re-verifying the ``ceil(|R(q)|/M)`` optimality bound.

Corruption schedules come from the same seeded splitmix64 stream as
every other fault (:class:`~repro.runtime.faults.FaultPlan`
``corruption_rate``), and crashes land on a record boundary a
:class:`CrashPoint` names, so every failure scenario in tests and the
``python -m repro recover`` CLI is exactly reproducible.
"""

from repro.durability.checksum import encode_page, page_checksum
from repro.durability.checksummed_store import ChecksummedBucketStore
from repro.durability.durable_file import DurableFile, RecoveryReport, recover
from repro.durability.rebuild import DeviceRebuilder, RebuildReport
from repro.durability.scrubber import ScrubReport, Scrubber
from repro.durability.wal import CrashPoint, WalEntry, WriteAheadLog, read_wal

__all__ = [
    "encode_page",
    "page_checksum",
    "ChecksummedBucketStore",
    "WriteAheadLog",
    "WalEntry",
    "CrashPoint",
    "read_wal",
    "DurableFile",
    "RecoveryReport",
    "recover",
    "Scrubber",
    "ScrubReport",
    "DeviceRebuilder",
    "RebuildReport",
]
