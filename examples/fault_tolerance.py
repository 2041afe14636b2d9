#!/usr/bin/env python3
"""Fault tolerance: chained replication over FX declustering.

Successor work to the paper (chained declustering) adds a backup copy of
every bucket on the next device over.  This example loads a replicated
file, reads it with a device down, and shows that (a) every record stays
retrievable, and (b) the failed device's read load lands on exactly one
neighbour instead of a dedicated mirror — the availability/balance
trade-off chained placement is known for.  Which devices are down is a
fault plan's to say; the degraded executor reads around them.

Run:  python examples/fault_tolerance.py
"""

from repro import FileSystem, FXDistribution
from repro.distribution.replicated import ChainedReplicaScheme
from repro.query.partial_match import PartialMatchQuery
from repro.runtime import DegradedExecutor, FaultPlan
from repro.storage.replicated_file import ReplicatedFile
from repro.util.tables import format_table

FS = FileSystem.of(8, 8, 8, m=8)


def main() -> None:
    rf = ReplicatedFile(ChainedReplicaScheme(FXDistribution(FS)))
    rf.insert_all([(i, i * 3, i * 7) for i in range(800)])
    rf.check_invariants()
    print(
        f"loaded {rf.record_count} logical records "
        f"({sum(d.record_count for d in rf.devices)} physical copies) "
        f"on {FS.m} devices"
    )

    scan = PartialMatchQuery.full_scan(FS)

    def read(*failed):
        return DegradedExecutor(rf, FaultPlan.fail(failed)).execute(scan)

    healthy = read().buckets_per_device
    result = read(3)
    degraded = result.buckets_per_device
    print(
        f"\ndevice 3 failed: full scan still returns "
        f"{len(result.records)}/{rf.record_count} records "
        f"({result.failovers} buckets served from backups)"
    )
    print(
        format_table(
            ["device", "buckets (healthy)", "buckets (device 3 down)"],
            [[d, healthy[d], degraded[d]] for d in range(FS.m)],
            title="Read-load profile",
        )
    )

    # Non-adjacent double failure still survives; adjacent does not.
    survivors = read(3, 6)
    print(
        f"\ndevices 3 and 6 failed (non-adjacent): "
        f"{len(survivors.records)} records still retrievable"
    )
    # device 4 holds the backups of device 3's primaries
    partial = read(3, 4)
    print(
        f"devices 3 and 4 failed (adjacent pair): {partial.lost_buckets} "
        f"buckets lost, completeness {partial.completeness:.3f}"
    )


if __name__ == "__main__":
    main()
