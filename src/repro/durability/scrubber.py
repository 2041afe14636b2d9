"""Background scrub-and-repair over a replicated file.

Silent corruption is only dangerous while it stays silent.  The
:class:`Scrubber` sweeps every device of a
:class:`~repro.storage.replicated_file.ReplicatedFile` whose devices use
:class:`~repro.durability.ChecksummedBucketStore` pages, verifying each
page against its checksum *and* against the replica map: a page is bad if
its CRC fails ("corrupt") or if the chained-placement scheme says it must
exist here but it does not ("missing").  Bad pages are repaired by copying
the partner replica's verified copy; a page bad on *both* replicas is
reported unrepairable — never silently dropped.

Each sweep emits one ``scrub.sweep`` span with a ``corruption.detected``
event per bad page and a ``page.repaired`` / ``repair.failed`` event per
repair outcome, plus ``durability.*`` counters — so ``obs report`` shows
the self-healing activity next to the query telemetry.

Deterministic damage: :meth:`Scrubber.inject` walks pages in canonical
order and corrupts exactly those the
:class:`~repro.runtime.faults.FaultInjector`'s seeded splitmix64
corruption stream selects, so a scrub scenario replays bit-for-bit from
``FaultPlan(seed=..., corruption_rate=...)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.hashing.fields import Bucket
from repro.runtime.faults import FaultInjector
from repro.storage.replicated_file import ReplicatedFile

__all__ = ["Scrubber", "ScrubReport"]


@dataclass
class ScrubReport:
    """Outcome of one full sweep over every device of a replicated file."""

    devices_swept: int = 0
    pages_checked: int = 0
    corrupt_pages: int = 0
    missing_pages: int = 0
    repaired_pages: int = 0
    unrepairable: list[tuple[int, Bucket]] = field(default_factory=list)

    @property
    def bad_pages(self) -> int:
        return self.corrupt_pages + self.missing_pages

    @property
    def clean(self) -> bool:
        """True when the sweep found nothing wrong at all."""
        return self.bad_pages == 0

    @property
    def healed(self) -> bool:
        """True when everything found wrong was repaired."""
        return not self.unrepairable

    def summary(self) -> str:
        return (
            f"scrubbed {self.pages_checked} pages on {self.devices_swept} "
            f"devices: {self.corrupt_pages} corrupt, {self.missing_pages} "
            f"missing, {self.repaired_pages} repaired, "
            f"{len(self.unrepairable)} unrepairable"
        )

    def to_dict(self) -> dict:
        return {
            "devices_swept": self.devices_swept,
            "pages_checked": self.pages_checked,
            "corrupt_pages": self.corrupt_pages,
            "missing_pages": self.missing_pages,
            "repaired_pages": self.repaired_pages,
            "unrepairable": [
                {"device": device, "bucket": list(bucket)}
                for device, bucket in self.unrepairable
            ],
            "clean": self.clean,
            "healed": self.healed,
        }


class Scrubber:
    """Sweeps a replicated file's devices, repairing from chained replicas.

    >>> from repro.api import make_durable_file
    >>> durable = make_durable_file("fx", fields=(4, 4), devices=4)
    >>> durable.insert_all([(i, i % 4) for i in range(32)])
    >>> report = Scrubber(durable.file).sweep()
    >>> report.clean and report.healed
    True
    """

    def __init__(self, file: ReplicatedFile):
        if not isinstance(file, ReplicatedFile):
            raise ConfigurationError(
                "the scrubber repairs from chained replicas; it needs a "
                f"ReplicatedFile, got {type(file).__name__}"
            )
        for device in file.devices:
            if not hasattr(device.store, "verify_bucket"):
                raise ConfigurationError(
                    f"device {device.device_id} store has no checksums "
                    "(use ChecksummedBucketStore — e.g. "
                    "api.make_durable_file(checksummed=True))"
                )
        self.file = file
        self.scheme = file.scheme

    # ------------------------------------------------------------------
    # Deterministic damage
    # ------------------------------------------------------------------
    def inject(
        self, injector: FaultInjector, sweep: int = 0
    ) -> list[tuple[int, Bucket, str]]:
        """Corrupt exactly the pages the seeded fault stream selects.

        Pages are indexed in canonical (device, sorted-bucket) order, so
        the same plan damages the same pages no matter when or how often
        this runs.  Returns ``(device, bucket, kind)`` per damaged page.
        """
        if injector.m != self.file.filesystem.m:
            raise ConfigurationError(
                f"injector is bound to {injector.m} devices, file has "
                f"{self.file.filesystem.m}"
            )
        damaged: list[tuple[int, Bucket, str]] = []
        for device in self.file.devices:
            store = device.store
            for index, bucket in enumerate(sorted(store.buckets())):
                kind = injector.page_corruption_kind(
                    device.device_id, index, sweep
                )
                if kind is not None:
                    store.corrupt_bucket(bucket, kind=kind)
                    damaged.append((device.device_id, bucket, kind))
        return damaged

    # ------------------------------------------------------------------
    # The sweep
    # ------------------------------------------------------------------
    def _expected_pages(self) -> dict[int, set[Bucket]]:
        """Every page each device must hold, derived from actual contents
        plus the replica map — so a page lost on one device is still
        *expected* there because its partner holds the other copy."""
        expected: dict[int, set[Bucket]] = {
            device.device_id: set() for device in self.file.devices
        }
        for device in self.file.devices:
            store = device.store
            tracked = (
                store.tracked_buckets()
                if hasattr(store, "tracked_buckets")
                else store.buckets()
            )
            for bucket in tracked:
                primary, backup = self.scheme.replicas_of(bucket)
                expected[primary].add(tuple(bucket))
                expected[backup].add(tuple(bucket))
        return expected

    def sweep(self) -> ScrubReport:
        """Verify every expected page on every device; repair what fails.

        Repair copies the partner replica's page only after verifying the
        partner's checksum — a repair must never propagate corruption.
        """
        from repro.obs import telemetry, trace_span

        report = ScrubReport()
        expected = self._expected_pages()
        with trace_span(
            "scrub.sweep", devices=self.file.filesystem.m
        ) as span:
            for device in self.file.devices:
                report.devices_swept += 1
                store = device.store
                for bucket in sorted(expected[device.device_id]):
                    report.pages_checked += 1
                    if store.verify_bucket(bucket) and (
                        store.has_bucket(bucket)
                        or not self._partner_has(device.device_id, bucket)
                    ):
                        continue
                    kind = "corrupt" if store.has_bucket(bucket) else "missing"
                    if kind == "corrupt":
                        report.corrupt_pages += 1
                    else:
                        report.missing_pages += 1
                    span.add_event(
                        "corruption.detected",
                        device=device.device_id,
                        bucket=list(bucket),
                        kind=kind,
                    )
                    self._repair(device.device_id, bucket, report, span)
            span.set_attr("pages_checked", report.pages_checked)
            span.set_attr("bad_pages", report.bad_pages)
            span.set_attr("repaired", report.repaired_pages)
        metrics = telemetry().metrics
        metrics.add("durability.pages_scrubbed", report.pages_checked)
        if report.bad_pages:
            metrics.add("durability.corruption_detected", report.bad_pages)
        if report.repaired_pages:
            metrics.add("durability.pages_repaired", report.repaired_pages)
        return report

    def _partner_of(self, device_id: int, bucket: Bucket) -> int:
        primary, backup = self.scheme.replicas_of(bucket)
        return backup if device_id == primary else primary

    def _partner_has(self, device_id: int, bucket: Bucket) -> bool:
        partner = self.file.devices[self._partner_of(device_id, bucket)]
        return partner.store.has_bucket(bucket)

    def _repair(
        self, device_id: int, bucket: Bucket, report: ScrubReport, span
    ) -> None:
        partner_id = self._partner_of(device_id, bucket)
        partner_store = self.file.devices[partner_id].store
        if not partner_store.verify_bucket(bucket) or not partner_store.has_bucket(
            bucket
        ):
            report.unrepairable.append((device_id, tuple(bucket)))
            span.add_event(
                "repair.failed",
                device=device_id,
                bucket=list(bucket),
                partner=partner_id,
            )
            return
        records = partner_store.records_in(bucket)
        self.file.devices[device_id].replace_bucket(bucket, records)
        report.repaired_pages += 1
        span.add_event(
            "page.repaired",
            device=device_id,
            bucket=list(bucket),
            partner=partner_id,
            records=len(records),
        )
