"""Chained replica placement on top of any distribution method.

Declustering research immediately following the paper (e.g. Hsiao &
DeWitt's chained declustering, 1990) added availability: store a *backup*
copy of every bucket on the device "next" to its primary, so that any
single device failure leaves every bucket readable and the failed device's
read load lands on a neighbour instead of a single mirror.

:class:`ChainedReplicaScheme` wraps a primary
:class:`~repro.distribution.base.DistributionMethod` and derives backup
placement by a fixed device offset, and :func:`failover_device` is the
one failover rule: every reader of a failure set (the availability
analysis, the fault-aware simulator, the degraded executor) applies it.
This module deliberately stays *placement*: the dual writes live in
:mod:`repro.storage.replicated_file`, and the reads around failed devices
in :class:`~repro.runtime.degraded.DegradedExecutor`.
"""

from __future__ import annotations

from collections.abc import Collection

from repro.distribution.base import DistributionMethod
from repro.errors import ConfigurationError
from repro.hashing.fields import Bucket

__all__ = ["ChainedReplicaScheme", "failover_device"]


def failover_device(
    device: int, failed: Collection[int], m: int, offset: int | None
) -> int | None:
    """The device that reads a down *device*'s primary share, if any.

    The share goes to the chained backup ``(device + offset) mod m`` when
    that device is not in *failed*, and is lost (``None``) otherwise, or
    when there are no replicas (*offset* ``None``).

    >>> failover_device(3, {3}, 8, 1), failover_device(3, {3, 4}, 8, 1)
    (4, None)
    """
    if offset is None:
        return None
    backup = (device + offset) % m
    return None if backup in failed else backup


class ChainedReplicaScheme:
    """Primary placement by *base*, backup on ``(primary + offset) mod M``.

    *offset* must not be a multiple of ``M`` (the backup must land on a
    different device, or one failure loses data).

    >>> from repro import FileSystem, FXDistribution
    >>> fs = FileSystem.of(4, 4, m=4)
    >>> scheme = ChainedReplicaScheme(FXDistribution(fs))
    >>> scheme.primary_of((1, 2)) != scheme.backup_of((1, 2))
    True
    """

    def __init__(self, base: DistributionMethod, offset: int = 1):
        m = base.filesystem.m
        if m < 2:
            raise ConfigurationError(
                "replication needs at least two devices"
            )
        if offset % m == 0:
            raise ConfigurationError(
                f"offset {offset} maps backups onto their primaries (M={m})"
            )
        self.base = base
        self.offset = offset % m

    @property
    def filesystem(self):
        return self.base.filesystem

    def primary_of(self, bucket: Bucket) -> int:
        return self.base.device_of(bucket)

    def backup_of(self, bucket: Bucket) -> int:
        return self.replicas_of(bucket)[1]

    def replicas_of(self, bucket: Bucket) -> tuple[int, int]:
        """(primary, backup) device pair for one bucket."""
        primary = self.primary_of(bucket)
        return primary, (primary + self.offset) % self.filesystem.m

    def describe(self) -> str:
        return f"chained(+{self.offset}) over {self.base.describe()}"
