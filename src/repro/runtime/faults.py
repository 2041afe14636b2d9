"""Deterministic fault models for the execution runtime.

The paper's parallel model assumes all ``M`` devices answer every query;
this module supplies the ways a real array breaks that assumption:

* **fail-stop** — a device is down for the whole run (its primaries must
  be served by replicas or reported missing),
* **transient errors** — an individual read attempt fails with some
  probability and may be retried,
* **stragglers** — a device is up but slow by a latency factor,
* **corruption** — a bucket page is silently corrupted with some
  probability per scrub epoch (detected by checksums, repaired from the
  chained replica — :mod:`repro.durability`).

A :class:`FaultPlan` is a pure description and the only record of which
devices are down; a :class:`FaultInjector` binds it to a concrete array
size and answers point questions during execution, and
:func:`retry_episode` plays one device's batch through it.  All
randomness is derived by hashing ``(seed, device, query, attempt)``
through splitmix64, so outcomes are deterministic, order-independent and
exactly reproducible — the property every fault-injection test relies on.
(Process crashes are armed separately, at a write-ahead-log record
boundary, by :class:`~repro.durability.wal.CrashPoint`.)
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.runtime.retry import RetryPolicy
from repro.util.numbers import mix64

__all__ = ["FaultPlan", "FaultInjector", "retry_episode"]

_MASK = (1 << 64) - 1
#: Odd multipliers decorrelating the coordinates of one attempt draw.
_DEVICE_SALT = 0x9E3779B97F4A7C15
_QUERY_SALT = 0xC2B2AE3D27D4EB4F
_ATTEMPT_SALT = 0x165667B19E3779F9
#: Separate salts for the corruption stream, so adding corruption to a plan
#: never perturbs the transient-error draws of existing golden plans.
_PAGE_SALT = 0xD6E8FEB86659FD93
_SWEEP_SALT = 0xA3EC647659359ACD


@dataclass(frozen=True)
class FaultPlan:
    """A declarative, seed-reproducible description of array faults.

    *failed_devices* are fail-stop for the whole run; *transient_error_rate*
    is the per-read-attempt failure probability on live devices;
    *slow_factors* maps device id to a latency multiplier (2.0 = half
    speed); *corruption_rate* is the per-page silent-corruption probability
    per scrub epoch.  The default plan is fault-free.

    >>> plan = FaultPlan(seed=7, failed_devices=frozenset({2}))
    >>> plan.is_trivial
    False
    >>> FaultPlan().is_trivial
    True
    """

    seed: int = 0
    failed_devices: frozenset[int] = frozenset()
    transient_error_rate: float = 0.0
    slow_factors: Mapping[int, float] = field(default_factory=dict)
    corruption_rate: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "failed_devices", frozenset(self.failed_devices)
        )
        object.__setattr__(self, "slow_factors", dict(self.slow_factors))
        if any(d < 0 for d in self.failed_devices):
            raise ConfigurationError("device ids must be non-negative")
        if not 0.0 <= self.transient_error_rate < 1.0:
            raise ConfigurationError(
                f"transient error rate {self.transient_error_rate} "
                "outside [0, 1)"
            )
        for device, factor in self.slow_factors.items():
            if device < 0:
                raise ConfigurationError("device ids must be non-negative")
            if factor <= 0:
                raise ConfigurationError(
                    f"slow factor for device {device} must be positive, "
                    f"got {factor}"
                )
        if not 0.0 <= self.corruption_rate < 1.0:
            raise ConfigurationError(
                f"corruption rate {self.corruption_rate} outside [0, 1)"
            )

    @classmethod
    def none(cls) -> "FaultPlan":
        """The fault-free plan (every device healthy and full speed)."""
        return cls()

    @classmethod
    def fail(cls, devices: Iterable[int], seed: int = 0) -> "FaultPlan":
        """Fail-stop the given devices, nothing else."""
        return cls(seed=seed, failed_devices=frozenset(devices))

    @classmethod
    def corrupt(cls, rate: float, seed: int = 0) -> "FaultPlan":
        """Silently corrupt pages at *rate* per scrub epoch, nothing else."""
        return cls(seed=seed, corruption_rate=rate)

    @property
    def is_trivial(self) -> bool:
        """True when the plan injects no fault of any kind."""
        return (
            not self.failed_devices
            and self.transient_error_rate == 0.0
            and all(f == 1.0 for f in self.slow_factors.values())
            and self.corruption_rate == 0.0
        )

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        if self.failed_devices:
            parts.append(f"failed={sorted(self.failed_devices)}")
        if self.transient_error_rate:
            parts.append(f"error_rate={self.transient_error_rate}")
        if self.slow_factors:
            parts.append(f"slow={dict(sorted(self.slow_factors.items()))}")
        if self.corruption_rate:
            parts.append(f"corruption_rate={self.corruption_rate}")
        return f"FaultPlan({', '.join(parts)})"


class FaultInjector:
    """A :class:`FaultPlan` bound to an array of ``m`` devices.

    >>> injector = FaultInjector(FaultPlan.fail([1]), m=4)
    >>> injector.is_failed(1), injector.is_failed(0)
    (True, False)
    >>> injector.latency_factor(0)
    1.0
    """

    def __init__(self, plan: FaultPlan, m: int):
        if m < 1:
            raise ConfigurationError("need at least one device")
        out_of_range = [d for d in plan.failed_devices if d >= m]
        out_of_range += [d for d in plan.slow_factors if d >= m]
        if out_of_range:
            raise ConfigurationError(
                f"plan names devices {sorted(set(out_of_range))} "
                f"outside [0, {m})"
            )
        self.plan = plan
        self.m = m

    def is_failed(self, device: int) -> bool:
        """Fail-stop state of *device* (constant over the run)."""
        return device in self.plan.failed_devices

    def latency_factor(self, device: int) -> float:
        """Service-time multiplier of *device* (1.0 = nominal speed)."""
        return float(self.plan.slow_factors.get(device, 1.0))

    def attempt_fails(self, device: int, query_index: int, attempt: int) -> bool:
        """Seeded Bernoulli draw: does this read attempt fail transiently?

        The draw hashes ``(seed, device, query_index, attempt)``, so it does
        not depend on the order in which devices or queries are visited —
        two runs over the same workload agree attempt for attempt.
        """
        rate = self.plan.transient_error_rate
        if rate == 0.0 or self.is_failed(device):
            return False
        word = (
            (self.plan.seed & _MASK)
            ^ (device * _DEVICE_SALT)
            ^ (query_index * _QUERY_SALT)
            ^ (attempt * _ATTEMPT_SALT)
        ) & _MASK
        return mix64(word) / float(1 << 64) < rate

    def page_corruption_kind(
        self, device: int, page_index: int, sweep: int = 0
    ) -> str | None:
        """``None`` (clean), ``"drop"`` (page lost) or ``"tamper"`` (bits
        flipped) for one page.

        A seeded draw hashes ``(seed, device, page_index, sweep)`` through
        its own salts, so corruption schedules are order-independent and do
        not perturb the transient-error stream of the same plan.  A page is
        corrupted with the plan's ``corruption_rate``: the low half of that
        probability mass loses the page, the high half tampers with it.
        """
        rate = self.plan.corruption_rate
        if rate == 0.0:
            return None
        word = (
            (self.plan.seed & _MASK)
            ^ (device * _DEVICE_SALT)
            ^ (page_index * _PAGE_SALT)
            ^ (sweep * _SWEEP_SALT)
        ) & _MASK
        draw = mix64(word) / float(1 << 64)
        if draw >= rate:
            return None
        return "drop" if draw < rate / 2.0 else "tamper"


def retry_episode(
    injector: FaultInjector,
    retry: RetryPolicy,
    device: int,
    query_index: int,
    service_ms: float,
    tally,
) -> tuple[int, float, float, bool]:
    """``(attempts, elapsed ms, busy ms, served?)`` of one device's batch.

    Attempts repeat while the injector's seeded draw fails them, up to the
    policy's cap; the elapsed time is one *service_ms* per attempt plus
    the backoff between them.  The batch is served unless every attempt
    failed or the elapsed time ran past the policy's timeout, which then
    caps the device's busy time.  *tally* (a result or report) counts the
    retries and the abandoned batch.
    """
    attempts, succeeded = retry.max_attempts, False
    for attempt in range(1, retry.max_attempts + 1):
        if not injector.attempt_fails(device, query_index, attempt):
            attempts, succeeded = attempt, True
            break
    tally.retries += attempts - 1
    elapsed = attempts * service_ms + retry.total_backoff_ms(attempts)
    if succeeded and not retry.exceeds_timeout(elapsed):
        return attempts, elapsed, elapsed, True
    tally.timeouts += 1
    timeout = retry.timeout_ms
    busy = min(elapsed, timeout) if timeout is not None else elapsed
    return attempts, elapsed, busy, False
